//! Workload definitions and their seeded inputs. Inputs are generated into
//! files before anything is timed (in a child process, so generation never
//! shows in the measured process's peak RSS); the workloads then read them
//! back the way the `dds` CLI would.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;

use dds_graph::{gen, io as graph_io, GraphBuilder, Pair, VertexId};
use dds_stream::{save_events, Event, TimedEvent};

/// The workloads. Names are the `--workload` argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StaticExact,
    WindowArrivals,
    ChurnServe,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StaticExact,
        Workload::WindowArrivals,
        Workload::ChurnServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticExact => "static-exact",
            Workload::WindowArrivals => "window-arrivals",
            Workload::ChurnServe => "churn-serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator seed of the workload's base input, which `--seed`
    /// relabels. Exact solves on random graphs have heavy-tailed cost (one
    /// draw in five or so costs several times the median), so drawing a
    /// fresh input per seed would make the timings depend on which seeds
    /// ran; relabeling keeps the structure, and with it the work, while
    /// every seed still feeds the program different vertex ids, edge
    /// order and hash layouts. The streams are the E14 and E18 experiments'
    /// own (seed `0xDD5`).
    pub fn base_seed(self) -> u64 {
        match self {
            Workload::StaticExact => 2,
            Workload::WindowArrivals | Workload::ChurnServe => 0xDD5,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Input shape of a churn stream (`dds_bench::churn`): a warm-up prefix of
/// `s·t` block inserts plus `background_m` background inserts, then
/// `churn` ticks of balanced background churn.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    pub n: usize,
    pub background_m: usize,
    pub block: (usize, usize),
    pub churn: usize,
}

impl ChurnSpec {
    /// Events in the warm-up prefix (exactly the generator's warm-up).
    pub fn prefix(&self) -> usize {
        self.block.0 * self.block.1 + self.background_m
    }
}

/// Sizes of one workload. `tiny` shrinks every workload to a few seconds
/// end to end (the self-tests run it).
#[derive(Clone, Copy, Debug)]
pub enum Spec {
    /// `gen::planted(n, background_m, s, t, p)`.
    Planted {
        n: usize,
        background_m: usize,
        s: usize,
        t: usize,
        p: f64,
    },
    /// `dds_bench::arrivals(n, events)` replayed with `--window window`:
    /// the first `window` ticks are the warm-up prefix.
    Arrivals {
        n: usize,
        events: usize,
        window: u64,
        batch: usize,
    },
    Churn {
        stream: ChurnSpec,
        batch: usize,
    },
}

impl Spec {
    /// Vertex-id space of the input.
    pub fn n(&self) -> usize {
        match *self {
            Spec::Planted { n, .. } | Spec::Arrivals { n, .. } => n,
            Spec::Churn { stream, .. } => stream.n,
        }
    }
}

pub fn spec(workload: Workload, tiny: bool) -> Spec {
    match (workload, tiny) {
        // Sized to stay cache-resident: at 1.05M edges the solve's time
        // swung up to 1.8x with the host's memory contention, while this
        // graph moved a few percent over the same minutes.
        (Workload::StaticExact, false) => Spec::Planted {
            n: 15_000,
            background_m: 105_000,
            s: 30,
            t: 34,
            p: 0.9,
        },
        (Workload::StaticExact, true) => Spec::Planted {
            n: 3_000,
            background_m: 15_000,
            s: 10,
            t: 12,
            p: 0.9,
        },
        (Workload::WindowArrivals, false) => Spec::Arrivals {
            n: 400,
            events: 10_000,
            window: 4_000,
            batch: 25,
        },
        (Workload::WindowArrivals, true) => Spec::Arrivals {
            n: 60,
            events: 1_200,
            window: 300,
            batch: 10,
        },
        (Workload::ChurnServe, false) => Spec::Churn {
            stream: ChurnSpec {
                n: 400,
                background_m: 4_000,
                block: (32, 32),
                churn: 1_000_000,
            },
            batch: 100,
        },
        (Workload::ChurnServe, true) => Spec::Churn {
            stream: ChurnSpec {
                n: 120,
                background_m: 500,
                block: (10, 10),
                churn: 6_000,
            },
            batch: 50,
        },
    }
}

/// Where a run keeps its inputs, results and traces: `work/` beside this
/// package's manifest (ignored by git).
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// The generated input of one run.
#[derive(Clone, Debug)]
pub struct Input {
    /// Edge list (static) or event file (streams).
    pub path: PathBuf,
    /// The planted `S` and `T` of a static graph (empty for streams).
    pub planted: Pair,
    /// Vertex-id space.
    pub n: usize,
    /// Edges of a static graph (0 for streams).
    pub m: usize,
    /// Events of a stream (0 for static graphs).
    pub events: usize,
}

fn paths(workload: Workload, seed: u64, tiny: bool) -> (PathBuf, PathBuf) {
    let size = if tiny { "-tiny" } else { "" };
    let stem = work_dir().join(format!("{}{size}-seed{seed}", workload.name()));
    let ext = if workload == Workload::StaticExact {
        "txt"
    } else {
        "events"
    };
    (stem.with_extension(ext), stem.with_extension("meta"))
}

/// A seeded permutation of `0..n` (Fisher–Yates driven by splitmix64).
fn permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut p: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Generates the input in this process and writes its files.
///
/// # Errors
/// Any I/O failure, as text.
pub fn generate(workload: Workload, seed: u64, tiny: bool) -> Result<Input, String> {
    std::fs::create_dir_all(work_dir()).map_err(|e| format!("create work dir: {e}"))?;
    let (path, meta) = paths(workload, seed, tiny);
    let spec = spec(workload, tiny);
    let gen_seed = workload.base_seed();
    let perm = permutation(spec.n(), seed);
    let map = |v: VertexId| perm[v as usize];
    let mut input = Input {
        path,
        planted: Pair::new(Vec::new(), Vec::new()),
        n: spec.n(),
        m: 0,
        events: 0,
    };
    let events = match spec {
        Spec::Planted {
            n,
            background_m,
            s,
            t,
            p,
        } => {
            let base = gen::planted(n, background_m, s, t, p, gen_seed);
            let mut b = GraphBuilder::with_min_vertices(n);
            for (u, v) in base.graph.edges() {
                b.add_edge(map(u), map(v));
            }
            let g = b.build();
            graph_io::save_edge_list(&g, &input.path)
                .map_err(|e| format!("write {}: {e}", input.path.display()))?;
            input.m = g.m();
            input.planted = Pair::new(
                base.pair.s().iter().copied().map(map).collect(),
                base.pair.t().iter().copied().map(map).collect(),
            );
            Vec::new()
        }
        Spec::Arrivals { n, events, .. } => dds_bench::arrivals(n, events, gen_seed),
        Spec::Churn { stream: c, .. } => {
            dds_bench::churn(c.n, c.background_m, c.block, c.churn, gen_seed)
        }
    };
    if workload != Workload::StaticExact {
        let events: Vec<TimedEvent> = events
            .into_iter()
            .map(|e| TimedEvent {
                time: e.time,
                event: match e.event {
                    Event::Insert(u, v) => Event::Insert(map(u), map(v)),
                    Event::Delete(u, v) => Event::Delete(map(u), map(v)),
                },
            })
            .collect();
        save_events(&events, &input.path)
            .map_err(|e| format!("write {}: {e}", input.path.display()))?;
        input.events = events.len();
    }
    std::fs::write(&meta, input.meta_text()).map_err(|e| format!("write meta: {e}"))?;
    Ok(input)
}

impl Input {
    /// `n`, `m`, `events`, then the planted `S` and `T`.
    fn meta_text(&self) -> String {
        let ids = |v: &[VertexId]| {
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "n {}\nm {}\nevents {}\nS {}\nT {}\n",
            self.n,
            self.m,
            self.events,
            ids(self.planted.s()),
            ids(self.planted.t())
        )
    }

    fn from_meta(path: PathBuf, text: &str) -> Result<Input, String> {
        let (mut n, mut m, mut events) = (0, 0, 0);
        let (mut s, mut t) = (Vec::new(), Vec::new());
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = || {
                rest.trim()
                    .parse::<usize>()
                    .map_err(|e| format!("meta {key}: {e}"))
            };
            let ids = || -> Result<Vec<VertexId>, String> {
                rest.split_whitespace()
                    .map(|x| x.parse().map_err(|e| format!("meta {key}: {e}")))
                    .collect()
            };
            match key {
                "n" => n = num()?,
                "m" => m = num()?,
                "events" => events = num()?,
                "S" => s = ids()?,
                "T" => t = ids()?,
                other => return Err(format!("unknown meta key {other:?}")),
            }
        }
        Ok(Input {
            path,
            planted: Pair::new(s, t),
            n,
            m,
            events,
        })
    }

    /// Removes the generated files.
    pub fn remove(&self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(self.path.with_extension("meta"));
    }
}

/// Generates the input in a child process (this executable run with
/// `--generate`), waits for it, and reads back what it wrote.
///
/// # Errors
/// A failed spawn, a non-zero child exit, or unreadable output.
pub fn generate_in_child(workload: Workload, seed: u64, tiny: bool) -> Result<Input, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--generate", workload.name(), "--seed", &seed.to_string()]);
    if tiny {
        cmd.arg("--tiny");
    }
    let status = cmd.status().map_err(|e| format!("spawn generator: {e}"))?;
    if !status.success() {
        return Err(format!("generator exited with {status}"));
    }
    let (path, meta) = paths(workload, seed, tiny);
    let text = std::fs::read_to_string(&meta).map_err(|e| format!("read meta: {e}"))?;
    Input::from_meta(path, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::metrics::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn permutations_are_seeded_bijections() {
        let p = permutation(1000, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<VertexId>>());
        assert_eq!(p, permutation(1000, 7));
        assert_ne!(p, permutation(1000, 8));
    }

    #[test]
    fn meta_round_trips() {
        let input = Input {
            path: PathBuf::from("x.txt"),
            planted: Pair::new(vec![3, 1], vec![7]),
            n: 10,
            m: 20,
            events: 0,
        };
        let back = Input::from_meta(PathBuf::from("x.txt"), &input.meta_text()).unwrap();
        assert_eq!((back.n, back.m, back.events), (10, 20, 0));
        assert_eq!(back.planted, input.planted);
    }
}
