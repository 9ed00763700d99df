#!/usr/bin/env bash
# Leaf-op gate: the field's leaf operations and the ψ-table scan must be
# branch-free.
#
# Builds the `leafops` binary of fourq-bench in release (one
# #[inline(never)] wrapper per Fp/Fp2/Wide leaf operation, and one around
# the masked 8-slot ψ-table read of Algorithm 1's loop), disassembles it
# with `objdump -d`, finds each wrapper by its demangled symbol (`nm -C`),
# and prints each wrapper's instruction count.
# Exits 1 if any wrapper contains a conditional jump (`j<cc>`; `jmp`,
# `cmov<cc>` and `set<cc>` are fine), an indirect jump or call (`jmp *`,
# `call *`: a jump table on a secret index branches as surely as a
# `j<cc>`), or is missing from the binary. Only jumps gate: the counts
# move with the compiler version and are printed as a record.
#
# Usage: tools/leafops.sh
set -euo pipefail
cd "$(dirname "$0")/.."

src=crates/bench/src/bin/leafops.rs
cargo build --release -q -p fourq-bench --bin leafops
bin=target/release/leafops

# The wrapper names, in source order: every `fn` after #[inline(never)].
mapfile -t wrappers < <(awk '/^#\[inline\(never\)\]/ { want = 1; next }
    want && match($0, /^fn [a-z0-9_]+/) { print substr($0, 4, RLENGTH - 3) }
    { want = 0 }' "$src")
[[ ${#wrappers[@]} -gt 0 ]] || { echo "leafops: no wrappers found in $src"; exit 1; }

# address<TAB>wrapper for each wrapper symbol. A wrapper whose code is
# identical to another function's may be merged into it as an alias, so
# wrappers are located by address, not by the label objdump prints.
syms="$(nm -C --defined-only "$bin" | awk '
    $3 ~ /^leafops::[a-z0-9_]+(::h[0-9a-f]+)?$/ {
        name = substr($3, 10); sub(/::h[0-9a-f]+$/, "", name)
        addr = $1; sub(/^0+/, "", addr)
        printf "%s\t%s\n", addr, name
    }')"

# address<TAB>instructions<TAB>conditional jumps<TAB>indirect jumps and
# calls for every function in the binary. Alignment padding (int3, nop
# forms) is not counted.
counts="$(objdump -d --no-show-raw-insn "$bin" | awk '
    /^[0-9a-f]+ <.*>:$/ { cur = $1; sub(/^0+/, "", cur); n[cur] = 0; j[cur] = 0; ind[cur] = 0; next }
    /^$/ { cur = ""; next }
    cur != "" && /^ *[0-9a-f]+:\t/ {
        split($0, parts, "\t")
        if (parts[2] ~ /^int3|nop|^xchg +%ax,%ax/) next
        split(parts[2], words, " ")
        k = 1
        if (words[1] == "bnd" || words[1] == "notrack" || words[1] ~ /^rep/ || words[1] == "lock") k = 2
        op = words[k]
        n[cur]++
        if (op ~ /^j/ && op !~ /^jmp/) j[cur]++
        if (op ~ /^(jmp|call)/ && words[k + 1] ~ /^\*/) ind[cur]++
    }
    END { for (a in n) printf "%s\t%d\t%d\t%d\n", a, n[a], j[a], ind[a] }')"

status=0
printf '%-16s %12s %8s %9s\n' wrapper instructions j\<cc\> indirect
for w in "${wrappers[@]}"; do
    addr="$(printf '%s\n' "$syms" | awk -F'\t' -v w="$w" '$2 == w { print $1; exit }')"
    line="$(printf '%s\n' "$counts" | awk -F'\t' -v a="$addr" 'a != "" && $1 == a')"
    if [[ -z "$line" ]]; then
        printf '%-16s %12s %8s %9s  MISSING from the binary\n' "$w" - - -
        status=1
        continue
    fi
    IFS=$'\t' read -r _ insns jumps indirect <<<"$line"
    if [[ "$jumps" -gt 0 || "$indirect" -gt 0 ]]; then
        printf '%-16s %12d %8d %9d  BRANCHES\n' "$w" "$insns" "$jumps" "$indirect"
        status=1
    else
        printf '%-16s %12d %8d %9d\n' "$w" "$insns" "$jumps" "$indirect"
    fi
done
if [[ $status -ne 0 ]]; then
    echo "leafops: FAIL (a wrapper branches, jumps indirectly or was not found)"
else
    echo "leafops: OK, ${#wrappers[@]} wrappers, 0 conditional jumps, 0 indirect jumps or calls"
fi
exit $status
