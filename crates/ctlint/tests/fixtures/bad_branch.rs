//! R1/R6 fixture: secret-dependent branching.

// ct: secret
pub struct Key {
    pub k: u64,
}

pub fn leak_if(key: &Key) -> u64 {
    let x = key.k;
    if x > 0 {
        return 1;
    }
    0
}

pub fn leak_shortcircuit(key: &Key, flag: bool) -> bool {
    let x = key.k > 0;
    flag && x
}

pub fn leak_while(key: &Key) -> u64 {
    let mut n = key.k;
    while n > 0 {
        n -= 1;
    }
    n
}

pub fn leak_match(key: &Key) -> u64 {
    match key.k & 1 {
        0 => 0,
        _ => 1,
    }
}

pub fn leak_array_return(key: &Key) -> [u8; 32] {
    let mut out = [0u8; 32];
    if key.k > 0 {
        out[0] = 1;
    }
    out
}
