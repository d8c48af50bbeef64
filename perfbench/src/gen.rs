//! Seeded input generation: `.lu` programs with large cost graphs, and
//! the open-loop arrival schedule for the serve load.
//!
//! Everything here is a pure function of its seed, so two runs with the
//! same `--seed` see the same bytes and the same schedule.

/// splitmix64: small, seedable, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_1ab5_c0ff_ee00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Identifier stems for field and class names. Real code reuses a small
/// set of names across many classes, which is what makes qualified field
/// lookups in the parser scan many declarations.
const WORDS: &[&str] = &[
    "id", "name", "next", "prev", "size", "count", "value", "key", "data", "buf", "left", "right",
    "parent", "owner", "cache", "hash", "flags", "state", "kind", "mode", "index", "offset",
    "limit", "start", "stop", "head", "tail", "root", "child", "peer", "link", "meta", "tag",
    "slot", "cost", "rank", "score", "total", "low", "high", "sum", "mean", "time", "date", "path",
    "host", "port", "width",
];

fn cap(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_ascii_uppercase().to_string() + c.as_str(),
        None => String::new(),
    }
}

/// The shared field-name vocabulary for one program: the stems plus
/// seeded two-word compounds, in a seeded order (earlier names are drawn
/// more often).
fn vocabulary(rng: &mut Rng) -> Vec<String> {
    let mut v: Vec<String> = WORDS.iter().map(|w| w.to_string()).collect();
    while v.len() < 2 * WORDS.len() {
        let a = WORDS[rng.below(WORDS.len())];
        let b = WORDS[rng.below(WORDS.len())];
        let w = format!("{a}{}", cap(b));
        if a != b && !v.contains(&w) {
            v.push(w);
        }
    }
    rng.shuffle(&mut v);
    v
}

/// One generated class: int fields and reference fields, all drawn from
/// the shared vocabulary.
struct ClassShape {
    name: String,
    ints: Vec<String>,
    refs: Vec<String>,
}

/// Generates a `.lu` program with `classes` classes. Each class has a
/// builder method `mk<i>(it, prev)` that allocates one object, fills its
/// int fields through short arithmetic chains, links its reference
/// fields to `prev` (the object the previous builder returned, so
/// reference trees have depth), and sometimes loads a field of `prev`
/// into a predicate or a native. The links and the load run only when
/// the VM's seeded `rand` native says so, so runs with different
/// `RunConfig::seed` cover slightly different nodes. `main` calls every
/// builder in order for `iterations` rounds, so the program executes few
/// instructions per cost-graph node.
pub fn program(seed: u64, classes: usize, iterations: u32) -> String {
    let mut rng = Rng::new(seed);
    let vocab = vocabulary(&mut rng);
    let pick = |rng: &mut Rng| -> String {
        // Squaring a uniform draw skews towards the front of the list.
        let u = rng.unit();
        vocab[((u * u) * vocab.len() as f64) as usize].clone()
    };
    // Each feature comes in a fixed proportion and only its placement is
    // seeded, so every seed gives a program of the same size and shape
    // mix: the seed changes the program, not how long it takes.
    let mut spread = |f: &dyn Fn(usize) -> usize| -> Vec<usize> {
        let mut v: Vec<usize> = (0..classes).map(f).collect();
        rng.shuffle(&mut v);
        v
    };
    let n_ints = spread(&|i| 2 + i % 3);
    let n_refs = spread(&|i| i % 3);
    let read_back = spread(&|i| usize::from(i % 10 < 3));
    let load_prev = spread(&|i| usize::from(i % 5 < 2));
    let to_pred = spread(&|i| i % 2);
    let mut shapes = Vec::with_capacity(classes);
    for i in 0..classes {
        let name = format!(
            "{}{}{i}",
            cap(WORDS[rng.below(WORDS.len())]),
            cap(WORDS[rng.below(WORDS.len())])
        );
        let mut taken: Vec<String> = Vec::new();
        let mut draw = |rng: &mut Rng, n: usize| -> Vec<String> {
            let mut out = Vec::new();
            while out.len() < n {
                let f = pick(rng);
                if !taken.contains(&f) {
                    taken.push(f.clone());
                    out.push(f);
                }
            }
            out
        };
        let ints = draw(&mut rng, n_ints[i]);
        let refs = draw(&mut rng, n_refs[i]);
        shapes.push(ClassShape { name, ints, refs });
    }

    let mut out = String::new();
    out.push_str(
        "# generated by perfbench\nnative print/1\nnative blackhole/1\nnative rand/1 -> value\n",
    );
    for c in &shapes {
        let mut fields = c.ints.clone();
        fields.extend(c.refs.iter().cloned());
        out.push_str(&format!("class {} {{ {} }}\n", c.name, fields.join(" ")));
    }
    for (i, c) in shapes.iter().enumerate() {
        let cls = &c.name;
        out.push_str(&format!("\nmethod mk{i}/2 {{\n  o = new {cls}\n"));
        let mut last = "p0".to_string();
        for (k, f) in c.ints.iter().enumerate() {
            let t = format!("t{k}");
            let op = ["+", "*", "^", "-"][rng.below(4)];
            out.push_str(&format!("  {t} = {last} {op} {}\n", 3 + rng.below(97)));
            out.push_str(&format!("  o.{cls}::{f} = {t}\n"));
            last = t;
        }
        if read_back[i] == 1 {
            // Read a value back so part of the structure is useful.
            let f = &c.ints[rng.below(c.ints.len())];
            out.push_str(&format!(
                "  r = o.{cls}::{f}\n  u = r + {last}\n  native print(u)\n"
            ));
        }
        out.push_str(&format!("  c = native rand(2)\n  if c == 0 goto x{i}\n"));
        for f in &c.refs {
            out.push_str(&format!("  o.{cls}::{f} = p1\n"));
        }
        if i > 0 && load_prev[i] == 1 {
            // `prev` is always the object mk<i-1> just returned, and its
            // first int field is always stored.
            let p = &shapes[i - 1];
            out.push_str(&format!("  v = p1.{}::{}\n", p.name, p.ints[0]));
            if to_pred[i] == 1 {
                out.push_str(&format!(
                    "  if v == {last} goto s{i}\n  native blackhole(v)\ns{i}:\n"
                ));
            } else {
                out.push_str("  native blackhole(v)\n");
            }
        }
        out.push_str(&format!("x{i}:\n  return o\n}}\n"));
    }
    out.push_str(&format!(
        "\nmethod main/0 {{\n  it = 0\n  lim = {iterations}\n  one = 1\n  prev = null\ntop:\n  if it >= lim goto done\n"
    ));
    for i in 0..classes {
        out.push_str(&format!("  prev = call mk{i}(it, prev)\n"));
    }
    out.push_str("  it = it + one\n  goto top\ndone:\n  return\n}\n");
    out
}

/// What one open-loop arrival asks of the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push recorded session `session` into aggregate `key`.
    Push { session: usize, key: usize },
    /// `query <tenant> <program> <kind>` against aggregate `key`.
    Query { kind: QueryKind, key: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    Hash,
    Stats,
    Rank,
    Report,
}

impl QueryKind {
    pub fn word(self) -> &'static str {
        match self {
            QueryKind::Hash => "hash",
            QueryKind::Stats => "stats",
            QueryKind::Rank => "rank",
            QueryKind::Report => "report",
        }
    }
}

/// One scheduled request: when it falls due (seconds after the phase
/// starts) and what it does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub op: Op,
}

/// An open-loop schedule of `n` arrivals with exponential inter-arrival
/// times at `rate` per second. The mix is balanced and only its order is
/// random: half the arrivals are pushes, the rest are queries split
/// evenly over the four kinds, and aggregates are visited evenly. Every
/// query targets an aggregate that already exists; a push sends one of
/// `sessions_of_key[key]`.
pub fn schedule(seed: u64, n: usize, rate: f64, sessions_of_key: &[Vec<usize>]) -> Vec<Arrival> {
    const KINDS: [QueryKind; 4] = [
        QueryKind::Hash,
        QueryKind::Stats,
        QueryKind::Rank,
        QueryKind::Report,
    ];
    let mut rng = Rng::new(seed ^ 0xa11_0c8);
    let mut ops: Vec<usize> = (0..n).map(|i| i % 8).collect();
    rng.shuffle(&mut ops);
    let mut keys: Vec<usize> = (0..n).map(|i| i % sessions_of_key.len()).collect();
    rng.shuffle(&mut keys);
    let mut t = 0.0;
    ops.into_iter()
        .zip(keys)
        .map(|(o, key)| {
            t += -(1.0 - rng.unit()).ln() / rate;
            let op = match o {
                0..=3 => {
                    let s = &sessions_of_key[key];
                    Op::Push {
                        session: s[rng.below(s.len())],
                        key,
                    }
                }
                _ => Op::Query {
                    kind: KINDS[o - 4],
                    key,
                },
            };
            Arrival { due_s: t, op }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_program_bytes_and_other_seed_differs() {
        assert_eq!(program(7, 40, 2), program(7, 40, 2));
        assert_ne!(program(7, 40, 2), program(8, 40, 2));
    }

    #[test]
    fn same_seed_same_schedule_and_other_seed_differs() {
        let keys = vec![vec![0, 1], vec![2]];
        assert_eq!(schedule(3, 50, 10.0, &keys), schedule(3, 50, 10.0, &keys));
        assert_ne!(schedule(3, 50, 10.0, &keys), schedule(4, 50, 10.0, &keys));
    }

    #[test]
    fn generated_program_parses_and_runs() {
        let src = program(11, 60, 2);
        let p = lowutil::ir::parse_program(&src).expect("generated source parses");
        let out = lowutil::vm::Vm::new(&p)
            .run(&mut lowutil::vm::NullTracer)
            .expect("generated program runs");
        assert!(out.instructions_executed > 60 * 2 * 5);
    }

    #[test]
    fn schedule_is_increasing_and_targets_valid_keys() {
        let keys = vec![vec![0], vec![1, 2], vec![3]];
        let s = schedule(9, 200, 30.0, &keys);
        assert!(s.windows(2).all(|w| w[0].due_s < w[1].due_s));
        for a in &s {
            match a.op {
                Op::Push { session, key } => assert!(keys[key].contains(&session)),
                Op::Query { key, .. } => assert!(key < keys.len()),
            }
        }
    }
}
