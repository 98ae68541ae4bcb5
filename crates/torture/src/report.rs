//! Failure dumps.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use spp_pm::{CrashImage, PmPool};

use crate::Failure;

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
