//! Seeded workload generators: the documents each workload opens, the
//! request stream it sends, and the oracle every reply is checked
//! against. The oracle is computed here, from the values the generator
//! itself chose — never from the server's replies.

use hazel::server::json::{self, Json};

/// splitmix64: a tiny deterministic generator, so a seed names exactly
/// one request stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `$slider` instances in the `drag` document (B17 shape).
pub const DRAG_SLIDERS: usize = 32;
/// Definitions in the `edit` chain (B15 shape).
pub const EDIT_DEFS: usize = 128;
/// Sessions opened by `sessions`.
pub const SESSIONS: usize = 200;
/// Every `CURVE_EVERY`-th session is the grading `$curve` module.
const CURVE_EVERY: usize = 4;
/// Client connections `sessions` drives (one in flight on each).
pub const SESSION_CONNS: usize = 2;

/// The grading case study's `$curve` declaration (B14).
const CURVE_DECL: &str = "livelit $curve (score : Int) at Int { \
     model Bool init true; \
     expand fun generous : Bool -> \
       if generous then \"fun score : Int -> score + 5\" \
       else \"fun score : Int -> score - 5\" } ";
/// What the generous `$curve` adds to its score.
const CURVE_BONUS: i64 = 5;
/// The midterm score the grading module curves.
const MIDTERM: i64 = 88;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Slider drags on one many-instance document: the warm fast path.
    Drag,
    /// Splice edits on a definition chain: the full-run path plus analysis.
    Edit,
    /// Clicks across many small sessions over loopback TCP with journals.
    Sessions,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "drag" => Some(Kind::Drag),
            "edit" => Some(Kind::Edit),
            "sessions" => Some(Kind::Sessions),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Drag => "drag",
            Kind::Edit => "edit",
            Kind::Sessions => "sessions",
        }
    }

    /// Whether the workload runs over loopback TCP (else stdio).
    pub fn tcp(self) -> bool {
        self == Kind::Sessions
    }

    /// Client connections the workload drives.
    pub fn conns(self) -> usize {
        if self.tcp() {
            SESSION_CONNS
        } else {
            1
        }
    }

    /// Untimed warm-up interactions per connection, run at the end of
    /// set-up so caches are filled before timing starts.
    pub fn warmup(self) -> usize {
        match self {
            Kind::Drag | Kind::Edit => 30,
            Kind::Sessions => 400,
        }
    }
}

/// One protocol request and what its reply must contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The protocol op, for span names and per-op accounting.
    pub op: &'static str,
    /// The request line, without its newline.
    pub line: String,
    /// A substring the `ok` reply must contain (empty: any `ok` reply).
    pub needle: String,
}

impl Request {
    fn new(op: &'static str, line: String, needle: String) -> Request {
        Request { op, line, needle }
    }

    /// The span name of this request's protocol call.
    pub fn span_name(&self) -> &'static str {
        match self.op {
            "open" => "proto.open",
            "edit" => "proto.edit",
            "dispatch" => "proto.dispatch",
            "render" => "proto.render",
            "analyze" => "proto.analyze",
            _ => "proto.other",
        }
    }

    /// Whether `reply` passes the oracle: an `ok` reply carrying the
    /// expected substring.
    pub fn check(&self, reply: &str) -> bool {
        reply.starts_with("{\"ok\":true") && reply.contains(&self.needle)
    }
}

fn result_needle(value: i64) -> String {
    format!("\"result\":\"{value}\"")
}

/// The same user action as a library call, for the in-process engine
/// replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Set slider `hole` of the (only) document to `value`.
    Set { hole: u64, value: i64 },
    /// Replace splice 0 of hole 0 with `contents`.
    Splice { contents: String },
    /// Click button `target` of `hole` in session number `session`.
    Click {
        session: usize,
        hole: u64,
        target: &'static str,
    },
}

/// One user interaction: the requests it sends, in order, and the same
/// action as a library call.
#[derive(Debug, Clone)]
pub struct Interaction {
    /// The requests; the interaction ends when the last reply arrives.
    pub requests: Vec<Request>,
    /// The action the requests perform (`None` for set-up).
    pub step: Option<Step>,
}

/// A session of the `sessions` workload.
#[derive(Debug, Clone)]
struct SessionDoc {
    /// The session name.
    name: String,
    /// The module source.
    source: String,
    /// The hole of the clickable `$slider`.
    hole: u64,
    /// The slider's value, as the generator tracks it.
    value: i64,
    /// What the program adds to the slider's value.
    offset: i64,
}

impl SessionDoc {
    fn result(&self) -> i64 {
        self.value + self.offset
    }
}

/// Everything one workload sends for one seed, split by connection.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// One stream per connection.
    pub lanes: Vec<Lane>,
}

/// One connection's share of a plan: the sessions it owns and its
/// request stream. Connections never share a session, so each
/// connection's replies are determined by its own stream alone.
#[derive(Debug, Clone)]
pub struct Lane {
    kind: Kind,
    rng: Rng,
    /// Slider values of the `drag` document.
    sliders: Vec<i64>,
    /// Sessions this lane owns (`sessions` only); indexes into the
    /// plan-wide numbering are `first + i * stride`.
    sessions: Vec<SessionDoc>,
    first: usize,
    stride: usize,
    /// The `drag`/`edit` document source.
    source: String,
}

/// The `drag` document: `n` independent definitions, each bounding its
/// own `$slider`, summed. A drag on one instance leaves the others'
/// retained views valid (the B17 shape).
pub fn drag_source(values: &[i64]) -> String {
    let mut src = String::new();
    for i in 0..values.len() {
        src.push_str(&format!("def d{i} : Int = {} ;;\n", i + 1));
    }
    let sum: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, v)| format!("$slider@{i}{{{v}}}(0 : Int; d{i} : Int)"))
        .collect();
    src.push_str(&sum.join(" + "));
    src
}

/// The `edit` document: the grading `$curve` over a chain of `n`
/// definitions, each one more than the last (the B15 shape). The curve's
/// score splice reads the end of the chain, so its value is
/// `n + k + CURVE_BONUS` when the splice is `d{n-1} + k` (initially 0).
pub fn edit_source(n: usize) -> String {
    let mut src = String::from(CURVE_DECL);
    src.push_str("def d0 : Int = 1 ;;\n");
    for i in 1..n {
        src.push_str(&format!("def d{i} : Int = d{} + 1 ;;\n", i - 1));
    }
    src.push_str(&format!("$curve@0{{true}}({} : Int)", edit_splice(n, 0)));
    src
}

fn edit_splice(n: usize, k: i64) -> String {
    format!("d{} + {k}", n - 1)
}

fn session_doc(index: usize, start: i64) -> SessionDoc {
    let name = format!("s{index:03}");
    if index % CURVE_EVERY == CURVE_EVERY - 1 {
        // The B14 grading module, with a bonus slider the client clicks.
        SessionDoc {
            name,
            source: format!(
                "{CURVE_DECL}def midterm : Int = {MIDTERM} ;; \
                 let bonus = $slider@1{{{start}}}(0 : Int; 100 : Int) in \
                 $curve@0{{true}}(midterm + bonus : Int)"
            ),
            hole: 1,
            value: start,
            offset: MIDTERM + CURVE_BONUS,
        }
    } else {
        SessionDoc {
            name,
            source: format!("$slider@0{{{start}}}(0 : Int; 100 : Int)"),
            hole: 0,
            value: start,
            offset: 0,
        }
    }
}

/// A request line: `op` and `session`, then `fields`.
fn request_line(
    op: &'static str,
    session: &str,
    fields: impl IntoIterator<Item = (&'static str, Json)>,
) -> String {
    json::obj(
        [("op", json::str(op)), ("session", json::str(session))]
            .into_iter()
            .chain(fields),
    )
    .to_string()
}

fn open(session: &str, source: &str) -> Request {
    Request::new(
        "open",
        request_line("open", session, [("source", json::str(source))]),
        "\"op\":\"open\"".to_owned(),
    )
}

fn render(session: &str, result: i64) -> Request {
    Request::new(
        "render",
        request_line("render", session, []),
        result_needle(result),
    )
}

/// An `edit` request applying `edit` to `session`.
fn edit(session: &str, edit: impl IntoIterator<Item = (&'static str, Json)>) -> Request {
    Request::new(
        "edit",
        request_line("edit", session, [("edit", json::obj(edit))]),
        String::new(),
    )
}

impl Plan {
    /// The plan for `kind` under `seed`.
    pub fn new(kind: Kind, seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let lanes = match kind {
            Kind::Drag => {
                let sliders: Vec<i64> = (0..DRAG_SLIDERS).map(|_| rng.below(100) as i64).collect();
                vec![Lane {
                    kind,
                    source: drag_source(&sliders),
                    sliders,
                    rng,
                    sessions: Vec::new(),
                    first: 0,
                    stride: 1,
                }]
            }
            Kind::Edit => vec![Lane {
                kind,
                source: edit_source(EDIT_DEFS),
                sliders: Vec::new(),
                rng,
                sessions: Vec::new(),
                first: 0,
                stride: 1,
            }],
            Kind::Sessions => {
                let docs: Vec<SessionDoc> = (0..SESSIONS)
                    .map(|i| session_doc(i, 20 + rng.below(60) as i64))
                    .collect();
                (0..SESSION_CONNS)
                    .map(|c| Lane {
                        kind,
                        rng: Rng::new(rng.next_u64()),
                        sliders: Vec::new(),
                        sessions: docs
                            .iter()
                            .skip(c)
                            .step_by(SESSION_CONNS)
                            .cloned()
                            .collect(),
                        first: c,
                        stride: SESSION_CONNS,
                        source: String::new(),
                    })
                    .collect()
            }
        };
        Plan { kind, lanes }
    }

    /// Every session's module source, by plan-wide session number
    /// (`drag`/`edit`: the one document).
    pub fn sources(&self) -> Vec<String> {
        match self.kind {
            Kind::Drag | Kind::Edit => vec![self.lanes[0].source.clone()],
            Kind::Sessions => {
                let mut out = vec![String::new(); SESSIONS];
                for lane in &self.lanes {
                    for (i, doc) in lane.sessions.iter().enumerate() {
                        out[lane.first + i * lane.stride] = doc.source.clone();
                    }
                }
                out
            }
        }
    }
}

impl Lane {
    /// The set-up interactions: every `open` with its first `render`.
    pub fn setup(&self) -> Vec<Interaction> {
        match self.kind {
            Kind::Drag => vec![Interaction {
                requests: vec![
                    open("drag", &self.source),
                    render("drag", self.sliders.iter().sum()),
                ],
                step: None,
            }],
            Kind::Edit => vec![Interaction {
                requests: vec![
                    open("edit", &self.source),
                    render("edit", EDIT_DEFS as i64 + CURVE_BONUS),
                ],
                step: None,
            }],
            Kind::Sessions => self
                .sessions
                .iter()
                .map(|doc| Interaction {
                    requests: vec![
                        open(&doc.name, &doc.source),
                        render(&doc.name, doc.result()),
                    ],
                    step: None,
                })
                .collect(),
        }
    }

    /// The next interaction of the stream, advancing the oracle state.
    pub fn next_interaction(&mut self) -> Interaction {
        match self.kind {
            Kind::Drag => {
                let hole = self.rng.below(DRAG_SLIDERS as u64);
                let value = self.rng.below(100) as i64;
                self.sliders[hole as usize] = value;
                Interaction {
                    requests: vec![
                        edit(
                            "drag",
                            [
                                ("kind", json::str("dispatch")),
                                ("at", json::uint(hole)),
                                ("action", json::str(format!("(.set {value})"))),
                            ],
                        ),
                        render("drag", self.sliders.iter().sum()),
                    ],
                    step: Some(Step::Set { hole, value }),
                }
            }
            Kind::Edit => {
                let k = self.rng.below(1000) as i64;
                let contents = edit_splice(EDIT_DEFS, k);
                Interaction {
                    requests: vec![
                        edit(
                            "edit",
                            [
                                ("kind", json::str("edit_splice")),
                                ("at", json::int(0)),
                                ("splice", json::int(0)),
                                ("contents", json::str(contents.as_str())),
                            ],
                        ),
                        render("edit", EDIT_DEFS as i64 + k + CURVE_BONUS),
                        Request::new(
                            "analyze",
                            request_line("analyze", "edit", []),
                            "\"errors\":0,".to_owned(),
                        ),
                    ],
                    step: Some(Step::Splice { contents }),
                }
            }
            Kind::Sessions => {
                let i = self.rng.below(self.sessions.len() as u64) as usize;
                let up = self.rng.below(2) == 0;
                let doc = &mut self.sessions[i];
                // Keep values positive, so the oracle's result text never
                // depends on how negative numbers print.
                let target = if up || doc.value <= 1 { "inc" } else { "dec" };
                doc.value += if target == "inc" { 1 } else { -1 };
                Interaction {
                    requests: vec![
                        Request::new(
                            "dispatch",
                            request_line(
                                "dispatch",
                                &doc.name,
                                [
                                    ("hole", json::uint(doc.hole)),
                                    ("target", json::str(target)),
                                    ("event", json::str("click")),
                                ],
                            ),
                            String::new(),
                        ),
                        render(&doc.name, doc.result()),
                    ],
                    step: Some(Step::Click {
                        session: self.first + i * self.stride,
                        hole: doc.hole,
                        target,
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(kind: Kind, seed: u64, n: usize) -> Vec<u8> {
        let mut plan = Plan::new(kind, seed);
        let mut out = Vec::new();
        for lane in &mut plan.lanes {
            for i in lane
                .setup()
                .into_iter()
                .chain((0..n).map(|_| lane.next_interaction()))
            {
                for r in i.requests {
                    out.extend_from_slice(r.line.as_bytes());
                    out.push(b'\n');
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_same_bytes() {
        for kind in [Kind::Drag, Kind::Edit, Kind::Sessions] {
            let a = stream_bytes(kind, 7, 300);
            assert_eq!(a, stream_bytes(kind, 7, 300), "{kind:?}");
            assert_ne!(a, stream_bytes(kind, 8, 300), "{kind:?}");
        }
    }

    /// Plays `lines` through an in-process server, the same request
    /// handler the binary runs, returning the replies.
    fn tiny_run(kind: Kind, interactions: usize) -> Vec<(Request, String)> {
        let mut server = hazel::server::Server::with_registry(std::sync::Arc::new(|| {
            let mut registry = hazel::editor::LivelitRegistry::new();
            hazel::std::register_all(&mut registry);
            registry
        }));
        let mut plan = Plan::new(kind, 3);
        let lanes = plan.lanes.len();
        let mut requests: Vec<Request> = plan
            .lanes
            .iter()
            .flat_map(|l| l.setup())
            .flat_map(|i| i.requests)
            .collect();
        for n in 0..interactions {
            requests.extend(plan.lanes[n % lanes].next_interaction().requests);
        }
        requests
            .into_iter()
            .map(|r| {
                let reply = server.handle_line(&r.line);
                (r, reply)
            })
            .collect()
    }

    #[test]
    fn tiny_run_passes_the_oracle() {
        for kind in [Kind::Drag, Kind::Edit, Kind::Sessions] {
            for (request, reply) in tiny_run(kind, 60) {
                assert!(
                    request.check(&reply),
                    "{kind:?}: {} -> {reply}",
                    request.line
                );
            }
        }
    }

    #[test]
    fn the_oracle_rejects_a_wrong_result() {
        let (request, reply) = tiny_run(Kind::Drag, 1).pop().expect("a render");
        assert!(request.check(&reply));
        let wrong = Request {
            needle: result_needle(-1),
            ..request
        };
        assert!(!wrong.check(&reply));
        assert!(!wrong.check("{\"ok\":false,\"error\":{}}"));
    }

    #[test]
    fn lanes_own_disjoint_sessions() {
        let plan = Plan::new(Kind::Sessions, 1);
        let mut names: Vec<&str> = plan
            .lanes
            .iter()
            .flat_map(|l| l.sessions.iter().map(|d| d.name.as_str()))
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SESSIONS);
    }
}
