//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span has a name, the layer it belongs to, start and end (ns since a
//! shared epoch), its parent span and a request id. Spans stay in memory
//! and are written out once, when the run ends. A span's self time is its
//! duration minus the part of it that its children cover.
//!
//! A recorder belongs to one thread. Its root spans are opened with
//! [`Recorder::root`], which also times each root with clock reads of its
//! own; [`account`] then checks the spans against that wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread. Recorders that share an epoch can be
/// merged with [`Recorder::absorb`].
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Wall time of the roots opened with [`Recorder::root`], timed
    /// outside each span.
    pub wall_ns: u64,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            wall_ns: 0,
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span nested under the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        req: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Runs `f` under a new root span of the harness, and adds the wall
    /// time of the call, timed outside the span, to `wall_ns`.
    pub fn root<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        assert!(
            self.stack.is_empty(),
            "root span {name} opened inside another span"
        );
        let t = Instant::now();
        let out = self.span(name, "harness", req, f);
        self.wall_ns += t.elapsed().as_nanos() as u64;
        out
    }

    /// A leaf span around a call that records nothing itself.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span(name, layer, req, |_| f())
    }

    /// Moves another recorder's spans in, re-basing their parent links.
    /// Its wall time is not added: the two may have run concurrently.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-layer totals of self time.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut self_ns = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *self_ns.entry(s.layer).or_insert(0) += t;
    }
    self_ns
}

/// Per-layer self times of one thread's recorder, checked against the
/// wall time of its roots: every span must lie inside a root opened with
/// [`Recorder::root`], and none may overlap a sibling, so the self times
/// add up to the measured wall time. Returns them and their sum, or an
/// error when the sum is more than 1% off the wall time.
pub fn account(rec: &Recorder) -> Result<(BTreeMap<&'static str, u64>, u64), String> {
    let self_ns = self_by_layer(&rec.spans);
    let sum: u64 = self_ns.values().sum();
    let gap = sum.abs_diff(rec.wall_ns);
    if gap * 100 > rec.wall_ns {
        return Err(format!(
            "span self times sum to {sum} ns against {} ns of measured wall time",
            rec.wall_ns
        ));
    }
    Ok((self_ns, sum))
}

/// Durations in µs of the spans called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Writes the spans as tab-separated lines:
/// `id parent req layer name start_ns end_ns` (parent `-` for a root).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\treq\tlayer\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.req, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        a: u64,
        b: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            layer,
            start_ns: a,
            end_ns: b,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span("root", "harness", 0, 100, None),
            span("a", "curve", 10, 40, Some(0)),
            span("a1", "fp", 15, 25, Some(1)),
            span("b", "hash", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let by_layer = self_by_layer(&spans);
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        assert_eq!(by_layer["curve"], 20);
        assert_eq!(by_layer["harness"], 30);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children from different threads overlap in [30,40).
        let spans = vec![
            span("root", "harness", 0, 100, None),
            span("x", "serve", 20, 40, Some(0)),
            span("y", "serve", 30, 60, Some(0)),
            span("z", "serve", 90, 120, Some(0)), // clipped to [90,100)
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch);
        r.root("outer", 7, |r| {
            r.leaf("inner", "curve", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let mut other = Recorder::new(epoch);
        other.root("o", 8, |r| r.leaf("i", "sig", 8, || ()));
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.spans[0].start_ns <= r.spans[1].start_ns);
        assert!(r.spans[1].end_ns <= r.spans[0].end_ns);
        let (by_layer, sum) = account(&r).expect("nested spans add up to the wall time");
        assert!(by_layer["curve"] >= 2_000_000);
        assert!(sum <= r.wall_ns);
        r.absorb(other);
        assert_eq!(r.spans.len(), 4);
        assert_eq!(r.spans[3].parent, Some(2));
    }

    #[test]
    fn spans_of_another_thread_break_the_accounting() {
        // A second thread's root overlaps this thread's root in time, so
        // counting both would add its wait to this thread's wall time.
        let epoch = Instant::now();
        let mut main = Recorder::new(epoch);
        let mut side = Recorder::new(epoch);
        main.root("phase", 1, |r| {
            side.root("recv_loop", 1, |s| {
                s.leaf("recv", "serve", 1, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            r.leaf("send", "serve", 1, || ());
        });
        assert!(account(&main).is_ok());
        main.absorb(side);
        assert!(account(&main).is_err());
    }
}
