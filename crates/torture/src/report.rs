//! Failure dumps and run summaries.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use spp_pm::{CrashImage, PmPool};

use crate::{Failure, Summary, TortureConfig};

/// Dump a shrunk failure: the minimal crash image, the live pool's event
/// log, and a human-readable report with everything needed to reproduce.
/// Returns the dump directory (empty string if the dump itself failed —
/// the failure is still reported either way).
pub(crate) fn dump_failure(
    out_dir: &Path,
    f: &Failure,
    min_img: &CrashImage,
    pool: &PmPool,
) -> String {
    let dir = out_dir.join(format!("{}-b{}-s{}", f.workload, f.boundary, f.state));
    let write_all = || -> std::io::Result<()> {
        fs::create_dir_all(&dir)?;
        fs::write(dir.join("image.bin"), min_img.bytes())?;
        let mut events = String::new();
        if let Ok(log) = pool.event_log() {
            for e in log.events() {
                let _ = writeln!(events, "{e:?}");
            }
        }
        fs::write(dir.join("events.txt"), events)?;
        let mut rpt = String::new();
        let _ = writeln!(rpt, "workload:    {}", f.workload);
        let _ = writeln!(rpt, "boundary:    {}", f.boundary);
        let _ = writeln!(rpt, "state:       {}", f.state);
        let _ = writeln!(rpt, "seed:        {}", f.seed);
        let _ = writeln!(rpt, "violation:   {}", f.message);
        let _ = writeln!(rpt, "unpersisted: {:?}", f.unpersisted);
        let _ = writeln!(rpt, "kept:        {:?}", f.kept);
        let _ = writeln!(rpt, "dropped:     {:?} (minimal)", f.dropped);
        let _ = writeln!(rpt);
        let _ = writeln!(
            rpt,
            "image.bin is the minimal failing crash image (drop exactly the\n\
             `dropped` stores); events.txt is the full store/flush/fence log\n\
             of the run. Re-run `torture --seed <master seed> --workloads {}`\n\
             with the same config to reproduce.",
            f.workload
        );
        fs::write(dir.join("report.txt"), rpt)
    };
    match write_all() {
        Ok(()) => dir.display().to_string(),
        Err(_) => String::new(),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Write `summary.json` into the run's output directory so CI can archive
/// a machine-readable record of what was explored.
///
/// # Errors
///
/// Filesystem errors.
pub fn write_summary_json(cfg: &TortureConfig, summary: &Summary) -> std::io::Result<()> {
    fs::create_dir_all(&cfg.out_dir)?;
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(s, "  \"steps\": {},", cfg.steps);
    let _ = writeln!(s, "  \"per_boundary\": {},", cfg.per_boundary);
    let _ = writeln!(s, "  \"max_states\": {},", cfg.max_states);
    let _ = writeln!(s, "  \"total_states\": {},", summary.total_states());
    let _ = writeln!(s, "  \"total_failures\": {},", summary.total_failures());
    let _ = writeln!(s, "  \"workloads\": [");
    for (i, r) in summary.results.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", json_escape(&r.name));
        let _ = writeln!(s, "      \"boundaries\": {},", r.boundaries);
        let _ = writeln!(s, "      \"states\": {},", r.states);
        let _ = writeln!(s, "      \"failures\": [");
        for (j, f) in r.failures.iter().enumerate() {
            let _ = writeln!(s, "        {{");
            let _ = writeln!(s, "          \"boundary\": {},", f.boundary);
            let _ = writeln!(s, "          \"state\": {},", f.state);
            let _ = writeln!(s, "          \"seed\": {},", f.seed);
            let _ = writeln!(s, "          \"message\": \"{}\",", json_escape(&f.message));
            let _ = writeln!(s, "          \"dropped\": {:?},", f.dropped);
            let _ = writeln!(
                s,
                "          \"dump_dir\": \"{}\"",
                json_escape(&f.dump_dir)
            );
            let comma = if j + 1 < r.failures.len() { "," } else { "" };
            let _ = writeln!(s, "        }}{comma}");
        }
        let _ = writeln!(s, "      ]");
        let comma = if i + 1 < summary.results.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    fs::write(cfg.out_dir.join("summary.json"), s)
}
