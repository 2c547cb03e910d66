//! The `$basic_adjustments` livelit (Fig. 2, Sec. 2.5.3).
//!
//! `livelit $basic_adjustments (url : Str) at Img` — two `Int` splices
//! adjust contrast and brightness; the view shows a live preview of the
//! transformed image under the *selected closure* (so a preset function
//! mapped over several photos previews each photo as the client toggles
//! closures). "The expansion generates calls to a browser image processing
//! framework" — here, to the object-language framework of
//! [`crate::image::framework_source`], bound through the livelit's
//! definition-site context (Sec. 3.2.5).

use std::sync::OnceLock;

use hazel_lang::build;
use hazel_lang::external::EExp;
use hazel_lang::ident::{Label, LivelitName};
use hazel_lang::parse::{parse_eexp, parse_typ};
use hazel_lang::typ::Typ;
use hazel_lang::value::iv;
use hazel_lang::IExp;
use livelit_core::live::LiveResult;
use livelit_mvu::html::tags::*;
use livelit_mvu::html::{Dim, Html};
use livelit_mvu::livelit::{Action, CmdError, ContextBinding, Livelit, Model, UpdateCtx, ViewCtx};
use livelit_mvu::splice::SpliceRef;

use crate::image::{framework_source, image_to_eexp, img_typ, load_image, Image};

/// The photo gallery: the URLs the object-language `load_image` knows about
/// (the stand-in for the photographer's Lightroom collection).
pub const GALLERY: [&str; 3] = ["img://alpine", "img://harbor", "img://dunes"];

/// Builds the object-language `load_image : Str -> Img` as a chained
/// comparison over the gallery, each arm a literal image value.
fn load_image_def() -> EExp {
    let fallback = image_to_eexp(&Image::solid(12, 6, 128));
    let body = GALLERY.iter().rev().fold(fallback, |acc, url| {
        build::ite(
            build::bin(
                hazel_lang::BinOp::StrEq,
                build::var("url"),
                build::string(url),
            ),
            image_to_eexp(&load_image(url)),
            acc,
        )
    });
    build::lam("url", Typ::Str, body)
}

/// The `$basic_adjustments` livelit.
#[derive(Debug, Default, Clone, Copy)]
pub struct BasicAdjustmentsLivelit;

fn model_ref(model: &Model, l: &str) -> Result<SpliceRef, CmdError> {
    model
        .field(&Label::new(l))
        .and_then(SpliceRef::from_value)
        .ok_or_else(|| CmdError::Custom(format!("adjustments model missing .{l}")))
}

impl BasicAdjustmentsLivelit {
    fn eval_int(ctx: &ViewCtx<'_>, r: SpliceRef) -> Result<Option<i64>, CmdError> {
        Ok(match ctx.eval_splice(r)? {
            Some(LiveResult::Val(IExp::Int(n))) => Some(n),
            _ => None,
        })
    }
}

impl Livelit for BasicAdjustmentsLivelit {
    // `expand` is a pure function of the model: attested so the static
    // purity analysis (LL06xx) can discharge the dynamic determinism
    // check (LL0401) for this livelit.
    fn expand_pure(&self) -> bool {
        true
    }

    fn name(&self) -> LivelitName {
        LivelitName::new("$basic_adjustments")
    }

    fn param_tys(&self) -> Vec<Typ> {
        vec![Typ::Str]
    }

    fn expansion_ty(&self) -> Typ {
        img_typ()
    }

    fn model_ty(&self) -> Typ {
        let sref = livelit_mvu::splice::splice_ref_typ();
        Typ::prod([
            (Label::new("contrast"), sref.clone()),
            (Label::new("brightness"), sref),
        ])
    }

    fn context(&self) -> Vec<ContextBinding> {
        // The image-processing framework plus the photo loader, bound at
        // the definition site so the expansion is context-independent.
        // Built once per process: the bindings are constants.
        static CONTEXT: OnceLock<Vec<ContextBinding>> = OnceLock::new();
        CONTEXT
            .get_or_init(|| {
                let mut out = Vec::new();
                for (name, ty_src, def_src) in framework_source() {
                    out.push(ContextBinding::new(
                        name,
                        parse_typ(ty_src).expect("framework type parses"),
                        parse_eexp(def_src).expect("framework def parses"),
                    ));
                }
                out.push(ContextBinding::new(
                    "load_image",
                    Typ::arrow(Typ::Str, img_typ()),
                    load_image_def(),
                ));
                out
            })
            .clone()
    }

    fn init(&self, _params: &[SpliceRef], ctx: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
        // Two Int splices, as in Fig. 2 (there filled with $percent).
        let contrast = ctx.new_splice(Typ::Int, Some(build::int(0)))?;
        let brightness = ctx.new_splice(Typ::Int, Some(build::int(0)))?;
        Ok(iv::record([
            ("contrast", contrast.to_value()),
            ("brightness", brightness.to_value()),
        ]))
    }

    fn update(
        &self,
        model: &Model,
        action: &Action,
        ctx: &mut UpdateCtx<'_>,
    ) -> Result<Model, CmdError> {
        // (.set_contrast n) / (.set_brightness n) overwrite the splices
        // with literals (like $color's palette clicks).
        if let Some(IExp::Int(n)) = action.field(&Label::new("set_contrast")) {
            ctx.set_splice(model_ref(model, "contrast")?, build::int(*n))?;
        } else if let Some(IExp::Int(n)) = action.field(&Label::new("set_brightness")) {
            ctx.set_splice(model_ref(model, "brightness")?, build::int(*n))?;
        } else {
            return Err(CmdError::Custom("unknown $basic_adjustments action".into()));
        }
        Ok(model.clone())
    }

    fn view(&self, model: &Model, ctx: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
        let contrast_ref = model_ref(model, "contrast")?;
        let brightness_ref = model_ref(model, "brightness")?;

        // Live-evaluate the url parameter under the selected closure: this
        // is what makes toggling closures flip between photos (Fig. 2).
        let url = match ctx.eval_splice(SpliceRef(0))? {
            Some(LiveResult::Val(IExp::Str(s))) => Some(s),
            _ => None,
        };
        let contrast = Self::eval_int(ctx, contrast_ref)?;
        let brightness = Self::eval_int(ctx, brightness_ref)?;

        let preview = match (&url, contrast, brightness) {
            (Some(url), Some(c), Some(b)) => {
                let img = load_image(url)
                    .contrast(c.clamp(-100, 100) as i32)
                    .brightness(b as i32);
                div(img.to_ascii().into_iter().map(Html::text).collect()).attr("id", "preview")
            }
            _ => div(vec![Html::text(
                "(no preview: closure or splices indeterminate)",
            )])
            .attr("id", "preview"),
        };

        Ok(div(vec![
            span(vec![
                Html::text("contrast: "),
                ctx.editor(contrast_ref, Dim::fixed_width(12)),
                Html::text("  brightness: "),
                ctx.editor(brightness_ref, Dim::fixed_width(12)),
            ]),
            preview,
            Html::text(match url {
                Some(u) => format!("source: {u}"),
                None => "source: ?".to_owned(),
            }),
        ]))
    }

    fn expand(&self, model: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
        let contrast_ref = model_ref(model, "contrast").map_err(|e| e.to_string())?;
        let brightness_ref = model_ref(model, "brightness").map_err(|e| e.to_string())?;
        // fun url -> fun c -> fun b ->
        //   adjust_brightness (adjust_contrast (load_image url) c) b
        let body = build::aps(
            build::var("adjust_brightness"),
            [
                build::aps(
                    build::var("adjust_contrast"),
                    [
                        build::ap(build::var("load_image"), build::var("url")),
                        build::var("c"),
                    ],
                ),
                build::var("b"),
            ],
        );
        let pexpansion = build::lams([("url", Typ::Str), ("c", Typ::Int), ("b", Typ::Int)], body);
        Ok((pexpansion, vec![SpliceRef(0), contrast_ref, brightness_ref]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::image_from_value;
    use hazel_lang::ident::HoleName;
    use hazel_lang::unexpanded::UExp;
    use livelit_core::def::LivelitCtx;
    use livelit_mvu::host::Instance;
    use std::sync::Arc;

    fn phi() -> LivelitCtx {
        let mut phi = LivelitCtx::new();
        phi.define(livelit_mvu::host::def_for(
            &(Arc::new(BasicAdjustmentsLivelit) as Arc<dyn Livelit>),
        ))
        .unwrap();
        phi
    }

    fn instance(url: &str) -> Instance {
        Instance::new(
            Arc::new(BasicAdjustmentsLivelit),
            HoleName(0),
            vec![UExp::Str(url.to_owned())],
            1 << 20,
        )
        .unwrap()
    }

    #[test]
    fn expansion_type_checks_with_context() {
        let inst = instance(GALLERY[0]);
        let pexp = inst.pexpansion().unwrap();
        assert!(pexp.is_closed(), "context bindings close the expansion");
        let (ty, _) = hazel_lang::typing::syn(&hazel_lang::typing::Ctx::empty(), &pexp).unwrap();
        assert_eq!(ty, Typ::arrows([Typ::Str, Typ::Int, Typ::Int], img_typ()));
    }

    #[test]
    fn invocation_evaluates_to_adjusted_image() {
        let mut inst = instance(GALLERY[1]);
        inst.dispatch(&iv::record([("set_brightness", iv::int(30))]))
            .unwrap();
        let program = UExp::Livelit(Box::new(inst.invocation().unwrap()));
        let collection = livelit_core::cc::collect(&phi(), &program).unwrap();
        let result = collection.resume_result().unwrap();
        let computed = image_from_value(&result).expect("image value");
        // The object-language pipeline equals the Rust substrate.
        assert_eq!(computed, load_image(GALLERY[1]).contrast(0).brightness(30));
    }

    #[test]
    fn multiple_closures_from_mapped_preset() {
        // Fig. 2: let classic_look = fun url -> $basic_adjustments(url) in
        // (classic_look url1, classic_look url2) — two closures.
        let inst = instance("unused-placeholder");
        let mut ap = inst.invocation().unwrap();
        // Rebind the url parameter splice to the lambda-bound variable.
        ap.splices[0].exp = UExp::Var(hazel_lang::Var::new("url"));
        let call = |u: &str| {
            UExp::Ap(
                Box::new(UExp::Var(hazel_lang::Var::new("classic_look"))),
                Box::new(UExp::Str(u.to_owned())),
            )
        };
        let program = UExp::Let(
            hazel_lang::Var::new("classic_look"),
            None,
            Box::new(UExp::Lam(
                hazel_lang::Var::new("url"),
                Typ::Str,
                Box::new(UExp::Livelit(Box::new(ap))),
            )),
            Box::new(UExp::Tuple(vec![
                (Label::positional(0), call(GALLERY[0])),
                (Label::positional(1), call(GALLERY[2])),
            ])),
        );
        let collection = livelit_core::cc::collect(&phi(), &program).unwrap();
        let envs = collection.envs_for(HoleName(0));
        assert_eq!(envs.len(), 2, "one closure per mapped photo");
        let urls: Vec<&str> = envs
            .iter()
            .filter_map(|s| s.get(&hazel_lang::Var::new("url"))?.as_str())
            .collect();
        assert!(urls.contains(&GALLERY[0]));
        assert!(urls.contains(&GALLERY[2]));
    }

    #[test]
    fn view_preview_follows_selected_closure() {
        let phi = phi();
        let gamma = hazel_lang::typing::Ctx::from_bindings([(
            hazel_lang::Var::new("ignored_param"),
            Typ::Str,
        )]);
        // Hand-build two closures differing in the url parameter value.
        // The instance's param splice is the literal URL so closures are
        // not even needed for it — instead test with an empty env (the
        // splices are literals) and check the preview appears.
        let env = hazel_lang::Sigma::empty();
        let mut inst2 = instance(GALLERY[0]);
        inst2.selected_env = 0;
        let view = inst2
            .view(&phi, &gamma, std::slice::from_ref(&env), 4_000_000)
            .unwrap();
        let text = flatten(&view);
        assert!(text.contains(&format!("source: {}", GALLERY[0])), "{text}");
        // The preview contains ascii-art rows.
        assert!(text.lines().count() > 3);
    }

    #[test]
    fn unknown_url_falls_back_to_solid_image() {
        let inst = instance("img://nonexistent");
        let program = UExp::Livelit(Box::new(inst.invocation().unwrap()));
        let collection = livelit_core::cc::collect(&phi(), &program).unwrap();
        let result = collection.resume_result().unwrap();
        let computed = image_from_value(&result).expect("image value");
        assert_eq!(computed, Image::solid(12, 6, 128));
    }

    fn flatten(h: &Html<Action>) -> String {
        match h {
            Html::Text(s) => s.clone(),
            Html::Element { children, .. } => {
                children.iter().map(flatten).collect::<Vec<_>>().join("\n")
            }
            Html::Editor { splice, .. } => format!("[{splice}]"),
            Html::ResultView { splice, .. } => format!("<{splice}>"),
        }
    }
}
