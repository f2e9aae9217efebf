//! Engine placement comes from the pipeline's one analysis.
//!
//! A shard engine places state by the sharding verdict the synthesis
//! pipeline takes on the PDG it slices on. That verdict must be the one
//! `nfactor lint` reports for the same source, on every backend and
//! through both entry points, and building an engine must analyse the
//! program exactly once.

use nfactor::core::Pipeline;
use nfactor::corpus::{default_corpus, snort};
use nfactor::fuzz::gen_program;
use nfactor::shard::{Backend, ShardEngine, ShardPlan};
use nfactor::support::rng::Rng;
use nfactor::trace::Tracer;

const BACKENDS: [Backend; 3] = [Backend::Interp, Backend::Model, Backend::Compiled];

/// Generated NFs the placement check must cover.
const GENERATED: usize = 50;

/// Check every engine built for `src` against the lint's verdict.
/// Returns `false`, checking nothing, when the lint rejects the program.
fn placement_matches_lint(name: &str, src: &str) -> bool {
    let Ok(lint) = nfactor::lint::lint_source(name, src) else {
        return false;
    };
    let table = ShardPlan::from_report(&lint.sharding).render_table();
    let pipeline = Pipeline::builder().name(name).build().unwrap();
    let syn = pipeline
        .synthesize(src)
        .unwrap_or_else(|e| panic!("{name}: synthesize: {e}"));
    for backend in BACKENDS {
        let built = [
            (
                "from_source",
                ShardEngine::from_source(&pipeline, src, backend),
            ),
            (
                "from_synthesis",
                ShardEngine::from_synthesis(&pipeline, &syn, backend),
            ),
        ];
        for (route, engine) in built {
            let engine = engine.unwrap_or_else(|e| panic!("{name} {backend:?} {route}: {e}"));
            assert_eq!(
                engine.report(),
                &lint.sharding,
                "{name} {backend:?} {route}: verdict differs from the lint's"
            );
            assert_eq!(
                engine.plan().render_table(),
                table,
                "{name} {backend:?} {route}: plan differs from the lint's"
            );
        }
    }
    true
}

#[test]
fn corpus_placement_equals_lint() {
    for nf in default_corpus() {
        assert!(
            placement_matches_lint(nf.name, &nf.source),
            "{}: lint rejected",
            nf.name
        );
    }
    assert!(placement_matches_lint("snort25", &snort::source(25)));
}

#[test]
fn generated_placement_equals_lint() {
    let mut checked = 0;
    for seed in 1..=4 * GENERATED as u64 {
        let prog = gen_program(&mut Rng::new(seed));
        if placement_matches_lint(&format!("gen-{seed}"), &prog.source) {
            checked += 1;
            if checked == GENERATED {
                return;
            }
        }
    }
    panic!("only {checked} of the generated NFs passed the lint");
}

/// Completed spans named `name` the tracer recorded.
fn spans(tracer: &Tracer, name: &str) -> usize {
    tracer
        .events()
        .iter()
        .filter(|e| e.name == name && e.dur_ns.is_some())
        .count()
}

fn traced(tracer: &Tracer) -> Pipeline {
    Pipeline::builder()
        .name("snort")
        .tracer(tracer.clone())
        .build()
        .unwrap()
}

#[test]
fn each_engine_build_analyses_once() {
    let src = snort::source(25);
    for backend in BACKENDS {
        let tracer = Tracer::enabled();
        ShardEngine::from_source(&traced(&tracer), &src, backend).unwrap();
        assert_eq!(spans(&tracer, "lint.ctx.build"), 1, "{backend:?}");
        assert_eq!(spans(&tracer, "pipeline.stage.slice"), 1, "{backend:?}");
        let symex = usize::from(backend != Backend::Interp);
        assert_eq!(spans(&tracer, "pipeline.stage.symex"), symex, "{backend:?}");
    }

    let syn = Pipeline::builder()
        .build()
        .unwrap()
        .synthesize(&src)
        .unwrap();
    for backend in BACKENDS {
        let tracer = Tracer::enabled();
        ShardEngine::from_synthesis(&traced(&tracer), &syn, backend).unwrap();
        assert_eq!(spans(&tracer, "lint.ctx.build"), 0, "{backend:?}");
        assert_eq!(spans(&tracer, "pipeline.stage.slice"), 0, "{backend:?}");
    }
}
