//! The grading library (Fig. 1c, Sec. 2.1): `compute_weighted_averages`,
//! `assign_grades`, and `format_for_university`, "helper function\[s\] defined
//! in a library (not shown) shared between courses".
//!
//! The library is written in Hazel surface syntax and parsed — it is
//! ordinary object-language code, loaded as prelude bindings so that both
//! the program and livelit splices can call it.

use hazel_editor::PreludeBinding;
use hazel_lang::parse::{parse_eexp, parse_typ};
use hazel_lang::typing::{ana, Ctx};
use hazel_lang::Var;

/// The object-language source of the grading library: (name, type,
/// definition) triples, in dependency order.
pub fn grading_source() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "sumf",
            "List(Float) -> Float",
            "fix sumf : (List(Float) -> Float) -> fun xs : List(Float) -> \
             lcase xs | [] -> 0. | h :: t -> h +. sumf t end",
        ),
        (
            "dot",
            "List(Float) -> List(Float) -> Float",
            "fix dot : (List(Float) -> List(Float) -> Float) -> \
             fun xs : List(Float) -> fun ws : List(Float) -> \
             lcase xs \
             | [] -> 0. \
             | x :: xt -> lcase ws | [] -> 0. | w :: wt -> x *. w +. dot xt wt end \
             end",
        ),
        (
            "compute_weighted_averages",
            "(.cols List(Str), .rows List((Str, List(Float)))) -> List(Float) \
             -> List((Str, Float))",
            "fun df : (.cols List(Str), .rows List((Str, List(Float)))) -> \
             fun weights : List(Float) -> \
             (fix go : (List((Str, List(Float))) -> List((Str, Float))) -> \
              fun rows : List((Str, List(Float))) -> \
              lcase rows \
              | [] -> [(Str, Float)|] \
              | r :: rest -> (r._0, dot r._1 weights /. sumf weights) :: go rest \
              end) df.rows",
        ),
        (
            "assign_grades",
            "List((Str, Float)) -> (.A Float, .B Float, .C Float, .D Float) \
             -> List((Str, Str))",
            "fun avgs : List((Str, Float)) -> \
             fun cutoffs : (.A Float, .B Float, .C Float, .D Float) -> \
             (fix go : (List((Str, Float)) -> List((Str, Str))) -> \
              fun xs : List((Str, Float)) -> \
              lcase xs \
              | [] -> [(Str, Str)|] \
              | p :: rest -> \
                (p._0, \
                 if p._1 >=. cutoffs.A then \"A\" \
                 else if p._1 >=. cutoffs.B then \"B\" \
                 else if p._1 >=. cutoffs.C then \"C\" \
                 else if p._1 >=. cutoffs.D then \"D\" \
                 else \"F\") :: go rest \
              end) avgs",
        ),
        (
            "format_for_university",
            "List((Str, Str)) -> Str",
            "fun grades : List((Str, Str)) -> \
             (fix go : (List((Str, Str)) -> Str) -> \
              fun xs : List((Str, Str)) -> \
              lcase xs | [] -> \"\" | p :: rest -> p._0 ^ \":\" ^ p._1 ^ \";\" ^ go rest end) \
             grades",
        ),
    ]
}

/// Parses, type checks, and packages the grading library as prelude
/// bindings.
///
/// # Panics
///
/// Panics if the library source fails to parse or type check — the source
/// is a compile-time constant, so this indicates a build defect (and is
/// exercised by this module's tests).
pub fn grading_prelude() -> Vec<PreludeBinding> {
    let mut ctx = Ctx::empty();
    let mut out = Vec::new();
    for (name, ty_src, def_src) in grading_source() {
        let ty = parse_typ(ty_src).unwrap_or_else(|e| panic!("{name} type: {e}"));
        let def = parse_eexp(def_src).unwrap_or_else(|e| panic!("{name} def: {e}"));
        ana(&ctx, &def, &ty).unwrap_or_else(|e| panic!("{name} is ill-typed: {e}"));
        ctx = ctx.extend(Var::new(name), ty.clone());
        out.push(PreludeBinding::new(name, ty, def));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazel_lang::build;
    use hazel_lang::elab::elab_syn;
    use hazel_lang::eval::{eval_traced, DEFAULT_FUEL};
    use hazel_lang::external::EExp;
    use hazel_lang::ident::Label;
    use hazel_lang::typ::Typ;
    use hazel_lang::IExp;

    fn run_with_prelude(src: &str) -> IExp {
        let mut program = parse_eexp(src).unwrap();
        for b in grading_prelude().into_iter().rev() {
            program = EExp::Let(b.var, Some(b.ty), Box::new(b.def), Box::new(program));
        }
        let (d, _, _) = elab_syn(&Ctx::empty(), &program).unwrap();
        eval_traced(&d, DEFAULT_FUEL).unwrap()
    }

    #[test]
    fn prelude_parses_and_types() {
        assert_eq!(grading_prelude().len(), 5);
    }

    #[test]
    fn sumf_and_dot() {
        assert_eq!(
            run_with_prelude("sumf [Float| 1., 2., 3.5]"),
            IExp::Float(6.5)
        );
        assert_eq!(
            run_with_prelude("dot [Float| 1., 2.] [Float| 10., 20.]"),
            IExp::Float(50.0)
        );
        assert_eq!(run_with_prelude("sumf [Float|]"), IExp::Float(0.0));
    }

    #[test]
    fn weighted_averages_over_dataframe() {
        // One student, two assignments weighted 1:3.
        let result = run_with_prelude(
            "compute_weighted_averages \
             (.cols [Str| \"A1\", \"A2\"], \
              .rows [(Str, List(Float))| (\"Andrew\", [Float| 80., 100.])]) \
             [Float| 1., 3.]",
        );
        let rows = result.list_elements().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].field(&Label::positional(0)).and_then(IExp::as_str),
            Some("Andrew")
        );
        assert_eq!(
            rows[0]
                .field(&Label::positional(1))
                .and_then(IExp::as_float),
            Some(95.0)
        );
    }

    #[test]
    fn assign_grades_uses_cutoffs() {
        let result = run_with_prelude(
            "assign_grades \
             [(Str, Float)| (\"a\", 91.), (\"b\", 76.5), (\"c\", 40.)] \
             (.A 86., .B 76., .C 67., .D 48.)",
        );
        let rows = result.list_elements().unwrap();
        let grades: Vec<&str> = rows
            .iter()
            .map(|r| {
                r.field(&Label::positional(1))
                    .and_then(IExp::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(grades, vec!["A", "B", "F"]);
    }

    #[test]
    fn format_for_university_concatenates() {
        let result = run_with_prelude(
            "format_for_university [(Str, Str)| (\"ann\", \"A\"), (\"bob\", \"B\")]",
        );
        assert_eq!(result.as_str(), Some("ann:A;bob:B;"));
    }

    #[test]
    fn full_grading_pipeline() {
        // The Sec. 2.2 expansion, minus the livelits: dataframe → weighted
        // averages → grades → registrar format.
        let result = run_with_prelude(
            "let grades = (.cols [Str| \"Mid\", \"Final\"], \
                           .rows [(Str, List(Float))| \
                                  (\"Andrew\", [Float| 95., 88.]), \
                                  (\"Cyrus\",  [Float| 70., 85.]), \
                                  (\"David\",  [Float| 82., 79.])]) in \
             let averages = compute_weighted_averages grades [Float| 1., 1.] in \
             let cutoffs = (.A 86., .B 76., .C 67., .D 48.) in \
             format_for_university (assign_grades averages cutoffs)",
        );
        assert_eq!(result.as_str(), Some("Andrew:A;Cyrus:B;David:B;"));
    }

    #[test]
    fn empty_dataframe_is_fine() {
        let result = run_with_prelude(
            "compute_weighted_averages \
             (.cols [Str|], .rows [(Str, List(Float))|]) [Float| 1.]",
        );
        assert_eq!(result, build_nil());
    }

    fn build_nil() -> IExp {
        let (d, _, _) = elab_syn(
            &Ctx::empty(),
            &build::nil(Typ::tuple([Typ::Str, Typ::Float])),
        )
        .unwrap();
        d
    }
}
