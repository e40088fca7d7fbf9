//! CLI driver for the experiment suite. Run `experiments all` (or a
//! specific experiment id such as `thm9`, `fig2`, `ablate-yield`) to
//! regenerate the paper's tables and figures; see DESIGN.md §3.

use abp_bench::exp;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let results = match which {
        "all" => exp::all(),
        "fig1" => vec![exp::fig1()],
        "fig2" => vec![exp::fig2()],
        "thm1" => vec![exp::thm1()],
        "thm2" => vec![exp::thm2()],
        "thm9" => vec![exp::thm9()],
        "thm9-tail" => vec![exp::thm9_tail()],
        "thm10" => vec![exp::thm10()],
        "thm11" => vec![exp::thm11()],
        "thm12" => vec![exp::thm12()],
        "hood-constant" => vec![exp::hood_constant()],
        "ablate-lock" => vec![exp::ablate_lock()],
        "ablate-yield" => vec![exp::ablate_yield()],
        "lemma3" | "potential" | "invariants" => vec![exp::invariants()],
        "deque-check" => vec![exp::deque_check()],
        "ws-vs-sharing" => vec![exp::ws_vs_sharing()],
        "assign-policy" => vec![exp::assign_policy()],
        "hood-wallclock" => vec![exp::hood_wallclock()],
        "telemetry" => vec![exp::telemetry()],
        "policies" => vec![exp::policies(false)],
        "policies-small" => vec![exp::policies(true)],
        "serve" => vec![exp::serve(false)],
        "serve-small" => vec![exp::serve(true)],
        "hotpath" => vec![exp::hotpath()],
        "theory" => vec![exp::theory(false)],
        "theory-small" => vec![exp::theory(true)],
        other => {
            eprintln!(
                "unknown experiment `{other}`; one of: all fig1 fig2 thm1 thm2 thm9 \
                 thm9-tail thm10 thm11 thm12 hood-constant ablate-lock ablate-yield \
                 lemma3 deque-check ws-vs-sharing assign-policy hood-wallclock telemetry \
                 policies policies-small serve serve-small hotpath \
                 theory theory-small"
            );
            std::process::exit(2);
        }
    };
    let mut failed = 0;
    for r in &results {
        println!("{r}");
        if !r.pass {
            failed += 1;
        }
    }
    println!(
        "{} experiment(s): {} passed, {} failed",
        results.len(),
        results.len() - failed,
        failed
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
