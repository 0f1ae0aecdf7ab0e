//! Smoke test for `shears reproduce`: every section renders from one
//! small campaign, its stdout is pinned byte for byte, and bad input is
//! refused before anything is built.

use std::process::{Command, Output};

use latency_shears::netsim::fault::Fnv1a;

const SECTIONS: [&str; 19] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "text1", "ext1", "ext2",
    "ext3", "text2", "ext4", "ext5", "ext6", "text3", "text4", "ext7",
];

fn shears(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_shears"))
        .args(args)
        .output()
        .expect("run shears")
}

#[test]
fn every_section_renders_from_one_campaign() {
    let out = shears(&["reproduce", "--scale", "60x2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}\n{stderr}", out.status);
    for id in SECTIONS {
        let header = format!("== {} — ", id.to_uppercase());
        assert!(stderr.contains(&header), "no {header:?} in\n{stderr}");
    }
    assert_eq!(stderr.matches("building platform").count(), 1, "{stderr}");
    assert_eq!(stderr.matches("campaign done:").count(), 1, "{stderr}");
    // Length and FNV-1a digest of every section's tables. A change that
    // moves the model re-pins them and says so in CHANGES.md.
    assert_eq!(
        (out.stdout.len(), Fnv1a::digest_of(&out.stdout)),
        (32_718, 0x7039_c8d1_deab_b209)
    );
}

#[test]
fn bad_sections_and_scales_are_refused_before_anything_runs() {
    for args in [
        &["reproduce", "fig4", "fig9"][..],
        &["reproduce", "--scale", "50x0", "fig7"],
        &["reproduce", "--scale", "0x12", "text1"],
        &["reproduce", "--scale", "paepr", "text1"],
        &["dataset", "--scale", "800x", "out"],
    ] {
        let out = shears(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(out.stdout.is_empty(), "{args:?} printed a section");
        assert!(!stderr.contains("building platform"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: shears"), "{args:?}: {stderr}");
    }
}
