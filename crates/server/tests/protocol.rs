//! End-to-end protocol tests: a server over the standard livelit library,
//! driven through the same line-in/line-out interface `hazel serve` uses.

use hazel_lang::external::EExp;
use hazel_lang::ident::LivelitName;
use hazel_lang::typ::Typ;
use livelit_mvu::html::Html;
use livelit_mvu::livelit::{Action, CmdError, Livelit, Model, UpdateCtx, ViewCtx};
use livelit_mvu::splice::SpliceRef;
use livelit_server::json::{self, Json};
use livelit_server::Server;
use livelit_std::slider::SliderLivelit;
use std::sync::Arc;

const SLIDER_DOC: &str = "$slider@0{10}(0 : Int; 100 : Int)";

fn std_server() -> Server {
    Server::with_registry(Arc::new(|| {
        let mut registry = hazel_editor::LivelitRegistry::new();
        livelit_std::register_all(&mut registry);
        registry
    }))
}

fn reply(server: &mut Server, line: &str) -> Json {
    json::parse(&server.handle_line(line)).expect("replies are valid JSON")
}

fn assert_ok(reply: &Json) {
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "expected ok reply, got {reply}"
    );
}

fn error_kind(reply: &Json) -> &str {
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "got {reply}");
    reply
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .expect("error replies carry a kind")
}

#[test]
fn open_render_dispatch_render_ships_patches() {
    let mut server = std_server();
    let open = reply(
        &mut server,
        &format!("{{\"op\":\"open\",\"session\":\"s\",\"source\":{SLIDER_DOC:?}}}"),
    );
    assert_ok(&open);
    assert_eq!(open.get("holes"), Some(&Json::Arr(vec![Json::Int(0)])));

    // First render has no acked views: everything ships full.
    let first = reply(&mut server, "{\"op\":\"render\",\"session\":\"s\"}");
    assert_ok(&first);
    let views = first.get("views").and_then(Json::as_arr).expect("views");
    assert_eq!(views.len(), 1);
    assert_eq!(views[0].get("mode").and_then(Json::as_str), Some("full"));
    assert_eq!(first.get("result").and_then(Json::as_str), Some("10"));

    // Click the increment button by its id in the shipped view.
    let hit = reply(
        &mut server,
        "{\"op\":\"dispatch\",\"session\":\"s\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}",
    );
    assert_ok(&hit);

    // The re-render diffs against the acked view: a small patch script,
    // not a full tree.
    let second = reply(&mut server, "{\"op\":\"render\",\"session\":\"s\"}");
    assert_ok(&second);
    let views = second.get("views").and_then(Json::as_arr).expect("views");
    assert_eq!(views[0].get("mode").and_then(Json::as_str), Some("patch"));
    assert_eq!(second.get("result").and_then(Json::as_str), Some("11"));

    let stats = reply(&mut server, "{\"op\":\"stats\",\"session\":\"s\"}");
    assert_ok(&stats);
    let patch_bytes = stats.get("patch_bytes").and_then(Json::as_int).unwrap();
    let full_bytes = stats.get("full_bytes").and_then(Json::as_int).unwrap();
    assert!(
        patch_bytes < full_bytes,
        "patches ({patch_bytes}B) should undercut full views ({full_bytes}B)"
    );
    assert!(stats.get("patches").and_then(Json::as_int).unwrap() > 0);
}

#[test]
fn edit_actions_cross_the_wire_as_surface_syntax() {
    let mut server = std_server();
    assert_ok(&reply(
        &mut server,
        &format!("{{\"op\":\"open\",\"session\":\"s\",\"source\":{SLIDER_DOC:?}}}"),
    ));

    // Model transition via an `edit` dispatch: the action value is surface
    // syntax, evaluated server-side.
    assert_ok(&reply(
        &mut server,
        "{\"op\":\"edit\",\"session\":\"s\",\"edit\":{\"kind\":\"dispatch\",\"at\":0,\"action\":\"(.set 42)\"}}",
    ));
    let render = reply(&mut server, "{\"op\":\"render\",\"session\":\"s\"}");
    assert_eq!(render.get("result").and_then(Json::as_str), Some("42"));

    // Splice edit: raise the minimum bound above the model.
    assert_ok(&reply(
        &mut server,
        "{\"op\":\"edit\",\"session\":\"s\",\"edit\":{\"kind\":\"edit_splice\",\"at\":0,\"splice\":0,\"contents\":\"50\"}}",
    ));
    let render = reply(&mut server, "{\"op\":\"render\",\"session\":\"s\"}");
    assert_ok(&render);

    // A nonsense action value is a `doc` error, not a dead server.
    let bad = reply(
        &mut server,
        "{\"op\":\"edit\",\"session\":\"s\",\"edit\":{\"kind\":\"dispatch\",\"at\":0,\"action\":\"(.bogus 1)\"}}",
    );
    assert_eq!(error_kind(&bad), "doc");
    // And the session is still alive afterwards.
    assert_ok(&reply(&mut server, "{\"op\":\"render\",\"session\":\"s\"}"));
}

#[test]
fn error_taxonomy_is_stable() {
    let mut server = std_server();
    assert_eq!(error_kind(&reply(&mut server, "{nope")), "parse");
    assert_eq!(error_kind(&reply(&mut server, "[1,2]")), "protocol");
    assert_eq!(
        error_kind(&reply(&mut server, "{\"op\":\"warp\"}")),
        "protocol"
    );
    assert_eq!(
        error_kind(&reply(&mut server, "{\"op\":\"render\"}")),
        "protocol"
    );
    assert_eq!(
        error_kind(&reply(
            &mut server,
            "{\"op\":\"render\",\"session\":\"ghost\"}"
        )),
        "session"
    );
    // Surface-syntax garbage in an open is a doc error; the server lives on.
    assert_eq!(
        error_kind(&reply(
            &mut server,
            "{\"op\":\"open\",\"session\":\"s\",\"source\":\"let let let\"}"
        )),
        "doc"
    );
    assert_eq!(server.session_count(), 0);

    assert_ok(&reply(
        &mut server,
        &format!("{{\"op\":\"open\",\"session\":\"s\",\"source\":{SLIDER_DOC:?}}}"),
    ));
    assert_eq!(
        error_kind(&reply(
            &mut server,
            &format!("{{\"op\":\"open\",\"session\":\"s\",\"source\":{SLIDER_DOC:?}}}"),
        )),
        "session"
    );
    assert_ok(&reply(&mut server, "{\"op\":\"close\",\"session\":\"s\"}"));
    assert_eq!(
        error_kind(&reply(&mut server, "{\"op\":\"render\",\"session\":\"s\"}")),
        "session"
    );
    assert_eq!(server.session_count(), 0);
}

#[test]
fn ids_are_echoed_on_ok_and_error_replies() {
    let mut server = std_server();
    let ok = reply(
        &mut server,
        &format!("{{\"op\":\"open\",\"id\":7,\"session\":\"s\",\"source\":{SLIDER_DOC:?}}}"),
    );
    assert_ok(&ok);
    assert_eq!(ok.get("id"), Some(&Json::Int(7)));
    let err = reply(
        &mut server,
        "{\"op\":\"render\",\"id\":\"r1\",\"session\":\"nope\"}",
    );
    assert_eq!(err.get("id"), Some(&Json::Str("r1".into())));
    assert_eq!(error_kind(&err), "session");
}

/// `$slider` with an `update` that panics: a stand-in for any bug that
/// panics mid-pipeline.
#[derive(Debug)]
struct PanickingSlider;

impl Livelit for PanickingSlider {
    fn name(&self) -> LivelitName {
        LivelitName::new("$bomb")
    }
    fn param_tys(&self) -> Vec<Typ> {
        SliderLivelit.param_tys()
    }
    fn expansion_ty(&self) -> Typ {
        SliderLivelit.expansion_ty()
    }
    fn model_ty(&self) -> Typ {
        SliderLivelit.model_ty()
    }
    fn init(&self, params: &[SpliceRef], ctx: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
        SliderLivelit.init(params, ctx)
    }
    fn update(&self, _: &Model, _: &Action, _: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
        panic!("$bomb update exploded")
    }
    fn view(&self, model: &Model, ctx: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
        SliderLivelit.view(model, ctx)
    }
    fn expand(&self, model: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
        SliderLivelit.expand(model)
    }
}

fn server_with_bomb() -> Server {
    Server::with_registry(Arc::new(|| {
        let mut registry = hazel_editor::LivelitRegistry::new();
        livelit_std::register_all(&mut registry);
        registry
            .register(Arc::new(PanickingSlider))
            .expect("$bomb passes registration lints");
        registry
    }))
}

/// The `catch_unwind` in `Server::handle_line` is the only panic boundary:
/// a request that panics mid-pipeline gets a structured `panic` reply, and
/// every other session is served exactly as if the panic never happened.
#[test]
fn a_panicking_request_is_isolated_to_its_own_reply() {
    let healthy = [
        format!("{{\"op\":\"open\",\"session\":\"ok\",\"source\":{SLIDER_DOC:?}}}"),
        "{\"op\":\"render\",\"session\":\"ok\"}".to_owned(),
        "{\"op\":\"dispatch\",\"session\":\"ok\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}"
            .to_owned(),
        "{\"op\":\"render\",\"session\":\"ok\"}".to_owned(),
        "{\"op\":\"stats\",\"session\":\"ok\"}".to_owned(),
    ];
    let mut untouched = server_with_bomb();
    let expected: Vec<String> = healthy.iter().map(|l| untouched.handle_line(l)).collect();

    let mut server = server_with_bomb();
    let mut got = Vec::new();
    got.push(server.handle_line(&healthy[0]));
    got.push(server.handle_line(&healthy[1]));
    assert_ok(&reply(
        &mut server,
        "{\"op\":\"open\",\"session\":\"boom\",\"source\":\"$bomb@0{10}(0 : Int; 100 : Int)\"}",
    ));
    assert_ok(&reply(
        &mut server,
        "{\"op\":\"render\",\"session\":\"boom\"}",
    ));
    let blown = reply(
        &mut server,
        "{\"op\":\"dispatch\",\"id\":9,\"session\":\"boom\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}",
    );
    assert_eq!(error_kind(&blown), "panic");
    assert_eq!(blown.get("id"), Some(&Json::Int(9)));
    let message = blown
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("panic replies carry a message");
    assert!(message.contains("$bomb update exploded"), "{message}");
    got.extend(healthy[2..].iter().map(|l| server.handle_line(l)));
    assert_eq!(got, expected);

    let stats = reply(&mut server, "{\"op\":\"stats\"}");
    assert_ok(&stats);
    assert_eq!(stats.get("sessions"), Some(&Json::Int(2)));
    assert_eq!(stats.get("errors"), Some(&Json::Int(1)));
}

#[test]
fn vanished_holes_are_forgotten() {
    let mut server = std_server();
    // A document whose hole is empty: filling and re-rendering exercises
    // acked-view bookkeeping when the hole set changes.
    assert_ok(&reply(
        &mut server,
        "{\"op\":\"open\",\"session\":\"s\",\"source\":\"?0 + 1\"}",
    ));
    let first = reply(&mut server, "{\"op\":\"render\",\"session\":\"s\"}");
    assert_ok(&first);
    assert_eq!(
        first.get("views").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0)
    );
    assert_ok(&reply(
        &mut server,
        "{\"op\":\"edit\",\"session\":\"s\",\"edit\":{\"kind\":\"fill_hole\",\"at\":0,\"livelit\":\"$slider\",\"params\":[\"0\",\"9\"]}}",
    ));
    let second = reply(&mut server, "{\"op\":\"render\",\"session\":\"s\"}");
    assert_ok(&second);
    let views = second.get("views").and_then(Json::as_arr).expect("views");
    assert_eq!(views.len(), 1);
    assert_eq!(views[0].get("mode").and_then(Json::as_str), Some("full"));
}

#[test]
fn analyze_ships_diagnostic_deltas_per_edit() {
    let mut server = std_server();
    // `x` is bound but unused and there is no fillable hole that could
    // come to use it: the flow analysis reports LL0501.
    assert_ok(&reply(
        &mut server,
        "{\"op\":\"open\",\"session\":\"s\",\"source\":\"let x = 1 in $slider@0{10}(0 : Int; 100 : Int)\"}",
    ));
    let first = reply(&mut server, "{\"op\":\"analyze\",\"session\":\"s\"}");
    assert_ok(&first);
    let added = first.get("added").and_then(Json::as_arr).expect("added");
    assert!(
        added
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("LL0501")),
        "expected LL0501 in {first}"
    );
    assert_eq!(first.get("removed"), Some(&Json::Arr(vec![])));
    assert_eq!(first.get("errors"), Some(&Json::Int(0)));
    assert!(first.get("warnings").and_then(Json::as_int).unwrap() >= 1);

    // No edit: the second analyze is an empty delta.
    let second = reply(&mut server, "{\"op\":\"analyze\",\"session\":\"s\"}");
    assert_ok(&second);
    assert_eq!(second.get("added"), Some(&Json::Arr(vec![])));
    assert_eq!(second.get("removed"), Some(&Json::Arr(vec![])));

    // Pointing the slider's lower bound at `x` creates the first use: the
    // next analyze retracts LL0501 through `removed`.
    assert_ok(&reply(
        &mut server,
        "{\"op\":\"edit\",\"session\":\"s\",\"edit\":{\"kind\":\"edit_splice\",\"at\":0,\"splice\":0,\"contents\":\"x\"}}",
    ));
    let third = reply(&mut server, "{\"op\":\"analyze\",\"session\":\"s\"}");
    assert_ok(&third);
    let removed = third
        .get("removed")
        .and_then(Json::as_arr)
        .expect("removed");
    assert!(
        removed
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("LL0501")),
        "expected LL0501 retracted in {third}"
    );

    // Unknown sessions follow the error taxonomy.
    let missing = reply(&mut server, "{\"op\":\"analyze\",\"session\":\"nope\"}");
    assert_eq!(error_kind(&missing), "session");
}
