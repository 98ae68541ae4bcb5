//! Ablation study for the design choices DESIGN.md calls out: what do
//! pointer tracking and bound-check preemption/hoisting buy? Runs the
//! mini-IR pipeline at each optimization level and reports hook counts and
//! wall time, plus a tag-width sweep on the raw encoding.
//!
//! Usage: `ablation [--iters 200000] [--quick]`

use std::sync::Arc;
use std::time::Instant;

use spp_bench::{banner, Args, Opt};
use spp_core::TagConfig;
use spp_instrument::{hoist_loop_checks, spp_transform, Function, Inst, Operand, Stmt, Vm, VmMode};
use spp_pm::{PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PoolOpts};

fn walk_program(iters: u64) -> Function {
    let mut f = Function::new();
    let p = f.reg();
    let x = f.reg();
    let i = f.reg();
    // One volatile pointer in the mix so pointer tracking has something to
    // prune.
    let vol = f.reg();
    f.push(Inst::AllocPm {
        dst: p,
        size: Operand::Const((iters + 1) * 8),
    });
    f.push(Inst::AllocVol {
        dst: vol,
        size: Operand::Const(64),
    });
    f.push(Inst::Store {
        ptr: vol,
        value: Operand::Const(1),
        size: 8,
    });
    f.body.push(Stmt::Loop {
        counter: i,
        count: Operand::Const(iters),
        body: vec![
            Stmt::Inst(Inst::Gep {
                dst: p,
                base: p,
                offset: Operand::Const(8),
            }),
            Stmt::Inst(Inst::Load {
                dst: x,
                ptr: p,
                size: 8,
            }),
        ],
    });
    f
}

fn run(f: &Function, pool_bytes: u64) -> (f64, u64, u64, u64) {
    let pm = Arc::new(PmPool::new(PoolConfig::new(pool_bytes).record_stats(false)));
    let pool = Arc::new(ObjPool::create(pm, PoolOpts::small()).expect("pool"));
    let mut vm = Vm::new(pool, TagConfig::default(), VmMode::Spp);
    let start = Instant::now();
    vm.run(f).expect("program traps unexpectedly");
    let secs = start.elapsed().as_secs_f64();
    let s = vm.runtime().stats();
    (secs, s.update_tag(), s.check_bound(), s.pm_bit_tests())
}

fn main() {
    let args = Args::parse(&[Opt::flag("quick"), Opt::value::<u64>("iters")]);
    let quick = args.flag("quick");
    let iters: u64 = args.get("iters", if quick { 20_000 } else { 200_000 });
    let pool_bytes = (iters + 2) * 8 + (1 << 20);

    banner("Ablation: pointer tracking & bound-check preemption (mini-IR pipeline)");
    println!("pointer-walk loop, {iters} iterations\n");
    println!(
        "{:<34} {:>9} {:>12} {:>12} {:>12}",
        "configuration", "time (s)", "updatetags", "checkbounds", "pm-bit tests"
    );

    let f = walk_program(iters);

    let (t_no, _) = spp_transform(&f, false);
    let (secs, ut, cb, bits) = run(&t_no, pool_bytes);
    println!(
        "{:<34} {secs:>9.3} {ut:>12} {cb:>12} {bits:>12}",
        "instrument all (no tracking)"
    );

    let (t_track, _) = spp_transform(&f, true);
    let (secs, ut, cb, bits) = run(&t_track, pool_bytes);
    println!(
        "{:<34} {secs:>9.3} {ut:>12} {cb:>12} {bits:>12}",
        "+ pointer tracking (_direct)"
    );

    let (mut t_opt, _) = spp_transform(&f, true);
    let hoisted = hoist_loop_checks(&mut t_opt);
    let (secs, ut, cb, bits) = run(&t_opt, pool_bytes);
    println!(
        "{:<34} {secs:>9.3} {ut:>12} {cb:>12} {bits:>12}",
        format!("+ hoisting ({} loop)", hoisted.loops_hoisted)
    );

    println!();
    banner("Ablation: tag-width sweep (encoding limits, §IV-G)");
    println!(
        "{:<10} {:>16} {:>18}",
        "tag bits", "max object", "max pool VA range"
    );
    for bits in [18u32, 22, 26, 31, 36] {
        let cfg = TagConfig::new(bits).expect("cfg");
        println!(
            "{:<10} {:>13} KiB {:>15} MiB",
            bits,
            cfg.max_object_size() >> 10,
            cfg.max_va() >> 20
        );
    }
}
