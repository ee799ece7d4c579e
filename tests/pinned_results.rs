//! Pinned instrumented-run results: the equivalence oracle for the
//! interpreter's shadow runtime.
//!
//! Every workload of the suite at `Scale::TEST` runs natively and under
//! each plan of `Config::ALL` plus the two bit-level configurations. Each
//! run is reduced to a digest of everything it reports — the printed
//! trace, exit value, trap, detections (site, kind and origin), ground
//! truth and all five counters — and compared with a checked-in literal.
//! A change to how the interpreter executes plans must leave every digest
//! unchanged; a change that is meant to move a result must regenerate the
//! table (the failure message prints it in full).

use std::fmt::Write as _;

use usher::core::{run_config, Config};
use usher::runtime::{run, RunOptions, RunResult};
use usher::workloads::{all_workloads, Scale};

/// FNV-1a, 64-bit: a fixed, dependency-free digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn digest(r: &RunResult) -> u64 {
    let mut s = String::new();
    write!(
        s,
        "trace={:?};exit={:?};trap={:?};",
        r.trace, r.exit, r.trap
    )
    .unwrap();
    for e in &r.detected {
        write!(
            s,
            "det={}/{:?}/{:?};",
            e.site,
            e.kind,
            e.origin.map(|o| o.to_string())
        )
        .unwrap();
    }
    for e in &r.ground_truth {
        write!(
            s,
            "gt={}/{:?}/{:?};",
            e.site,
            e.kind,
            e.origin.map(|o| o.to_string())
        )
        .unwrap();
    }
    let c = &r.counters;
    write!(
        s,
        "native_ops={};shadow_ops={};checks={};native_cost={};shadow_cost={}",
        c.native_ops, c.shadow_ops, c.checks_executed, c.native_cost, c.shadow_cost
    )
    .unwrap();
    fnv1a(s.as_bytes())
}

/// `(workload, configuration, digest)`; `native` is the uninstrumented run.
const PINNED: &[(&str, &str, u64)] = &[
    ("164.gzip", "native", 0xa5e2ade371a17d65),
    ("164.gzip", "MSan", 0xe5ac982d9e52e800),
    ("164.gzip", "Usher_TL", 0x2972b0765dace86c),
    ("164.gzip", "Usher_TL+AT", 0x4a4d9d9fa2fc2026),
    ("164.gzip", "Usher_OptI", 0x52844809f06af3bb),
    ("164.gzip", "Usher", 0xe44eef49993ecc47),
    ("164.gzip", "MSan/bit", 0xe5ac982d9e52e800),
    ("164.gzip", "Usher/bit", 0xe44eef49993ecc47),
    ("175.vpr", "native", 0x9aa8a6e38a19b7d7),
    ("175.vpr", "MSan", 0x5ea10f9f8553f83e),
    ("175.vpr", "Usher_TL", 0x8c8ef15d08d2f1f7),
    ("175.vpr", "Usher_TL+AT", 0x5e42c95ea829cbb2),
    ("175.vpr", "Usher_OptI", 0xdb5bce27f89580ad),
    ("175.vpr", "Usher", 0x2e1d90c0a528e320),
    ("175.vpr", "MSan/bit", 0x5ea10f9f8553f83e),
    ("175.vpr", "Usher/bit", 0x2e1d90c0a528e320),
    ("176.gcc", "native", 0xfa88654a3f292170),
    ("176.gcc", "MSan", 0x8980b2712030a8bc),
    ("176.gcc", "Usher_TL", 0x8129de3bf94fed99),
    ("176.gcc", "Usher_TL+AT", 0x744b5cdffef3c893),
    ("176.gcc", "Usher_OptI", 0x70b8befb9c0301d0),
    ("176.gcc", "Usher", 0xa67f41bddacfb842),
    ("176.gcc", "MSan/bit", 0x8980b2712030a8bc),
    ("176.gcc", "Usher/bit", 0xa67f41bddacfb842),
    ("177.mesa", "native", 0xe3ea6468d34afc44),
    ("177.mesa", "MSan", 0xafb2b69bfb201d23),
    ("177.mesa", "Usher_TL", 0x35782408736aa76d),
    ("177.mesa", "Usher_TL+AT", 0x63bc0ae2e1391523),
    ("177.mesa", "Usher_OptI", 0xfbb80aa49c8bf175),
    ("177.mesa", "Usher", 0xb20843c6734e398b),
    ("177.mesa", "MSan/bit", 0xafb2b69bfb201d23),
    ("177.mesa", "Usher/bit", 0xb20843c6734e398b),
    ("179.art", "native", 0xb7230f8cd54be264),
    ("179.art", "MSan", 0xfca2797943390a5c),
    ("179.art", "Usher_TL", 0x2ce93307c4bce5b9),
    ("179.art", "Usher_TL+AT", 0x59ace4d89662d8d2),
    ("179.art", "Usher_OptI", 0x24e28bb974a901ca),
    ("179.art", "Usher", 0x0f5e605de5ea3c39),
    ("179.art", "MSan/bit", 0xfca2797943390a5c),
    ("179.art", "Usher/bit", 0x0f5e605de5ea3c39),
    ("181.mcf", "native", 0xc4a53508e4fa90c3),
    ("181.mcf", "MSan", 0xda5d4777a3d21051),
    ("181.mcf", "Usher_TL", 0xbb7aaaa64c020ab1),
    ("181.mcf", "Usher_TL+AT", 0xc4a53508e4fa90c3),
    ("181.mcf", "Usher_OptI", 0xc4a53508e4fa90c3),
    ("181.mcf", "Usher", 0xc4a53508e4fa90c3),
    ("181.mcf", "MSan/bit", 0xda5d4777a3d21051),
    ("181.mcf", "Usher/bit", 0xc4a53508e4fa90c3),
    ("183.equake", "native", 0xe834417090aa1267),
    ("183.equake", "MSan", 0x49465b498b4d992b),
    ("183.equake", "Usher_TL", 0x6150781319c98170),
    ("183.equake", "Usher_TL+AT", 0x009d1e5b7b131b8d),
    ("183.equake", "Usher_OptI", 0x009d1e5b7b131b8d),
    ("183.equake", "Usher", 0x009d1e5b7b131b8d),
    ("183.equake", "MSan/bit", 0x49465b498b4d992b),
    ("183.equake", "Usher/bit", 0x009d1e5b7b131b8d),
    ("186.crafty", "native", 0xd187343a09ed8b9a),
    ("186.crafty", "MSan", 0xea1903c5194f29c1),
    ("186.crafty", "Usher_TL", 0x0902be6d971deb95),
    ("186.crafty", "Usher_TL+AT", 0x69edec277ad48863),
    ("186.crafty", "Usher_OptI", 0xecb36302c0161a87),
    ("186.crafty", "Usher", 0x9d38ea0c1ec42d5c),
    ("186.crafty", "MSan/bit", 0xea1903c5194f29c1),
    ("186.crafty", "Usher/bit", 0x9d38ea0c1ec42d5c),
    ("188.ammp", "native", 0x9d551a58ad082b20),
    ("188.ammp", "MSan", 0x1f0333698ddc4a8e),
    ("188.ammp", "Usher_TL", 0x31063071f5ac0b46),
    ("188.ammp", "Usher_TL+AT", 0x29d2d84e7c361d49),
    ("188.ammp", "Usher_OptI", 0xa4aefa07788ca5ca),
    ("188.ammp", "Usher", 0xa4aefa07788ca5ca),
    ("188.ammp", "MSan/bit", 0x1f0333698ddc4a8e),
    ("188.ammp", "Usher/bit", 0xa4aefa07788ca5ca),
    ("197.parser", "native", 0xcda35142f5378ef7),
    ("197.parser", "MSan", 0xeebe08713cbaa3f9),
    ("197.parser", "Usher_TL", 0xe9ddaf8b5eca06d4),
    ("197.parser", "Usher_TL+AT", 0x85d54e24ce9b3d4f),
    ("197.parser", "Usher_OptI", 0x32e1a884b183bab2),
    ("197.parser", "Usher", 0x651bbf4b401a8dcc),
    ("197.parser", "MSan/bit", 0xeebe08713cbaa3f9),
    ("197.parser", "Usher/bit", 0x651bbf4b401a8dcc),
    ("253.perlbmk", "native", 0x8725f2c38cdcf306),
    ("253.perlbmk", "MSan", 0x0620a60ed033b5a4),
    ("253.perlbmk", "Usher_TL", 0xc1e38e77313c21a9),
    ("253.perlbmk", "Usher_TL+AT", 0x26937ffc4687a4e9),
    ("253.perlbmk", "Usher_OptI", 0x036a8fbf09a89d49),
    ("253.perlbmk", "Usher", 0xb212d0dc81e9e0a0),
    ("253.perlbmk", "MSan/bit", 0x0620a60ed033b5a4),
    ("253.perlbmk", "Usher/bit", 0xb212d0dc81e9e0a0),
    ("254.gap", "native", 0xd38f431864319874),
    ("254.gap", "MSan", 0x6b11ea99e4d4c042),
    ("254.gap", "Usher_TL", 0x3abe66c028558779),
    ("254.gap", "Usher_TL+AT", 0x576148bea9f5ba49),
    ("254.gap", "Usher_OptI", 0x0ead9f035990dc3a),
    ("254.gap", "Usher", 0x207a44f6210cb67f),
    ("254.gap", "MSan/bit", 0x6b11ea99e4d4c042),
    ("254.gap", "Usher/bit", 0x207a44f6210cb67f),
    ("255.vortex", "native", 0x9197165952aa35fc),
    ("255.vortex", "MSan", 0x4664920e3c2019b5),
    ("255.vortex", "Usher_TL", 0x0f88447fe54d4f9d),
    ("255.vortex", "Usher_TL+AT", 0x983302f56029941c),
    ("255.vortex", "Usher_OptI", 0x5d8d03964cff1eb3),
    ("255.vortex", "Usher", 0x5d8d03964cff1eb3),
    ("255.vortex", "MSan/bit", 0x4664920e3c2019b5),
    ("255.vortex", "Usher/bit", 0x5d8d03964cff1eb3),
    ("256.bzip2", "native", 0xd770e677179cc0e4),
    ("256.bzip2", "MSan", 0xce50d4b8e228b453),
    ("256.bzip2", "Usher_TL", 0x49965ee49f485a25),
    ("256.bzip2", "Usher_TL+AT", 0x3adb4a36c83154ee),
    ("256.bzip2", "Usher_OptI", 0x49cd1f7b4ce2b169),
    ("256.bzip2", "Usher", 0x1914462633d9a037),
    ("256.bzip2", "MSan/bit", 0xce50d4b8e228b453),
    ("256.bzip2", "Usher/bit", 0x1914462633d9a037),
    ("300.twolf", "native", 0xa45d27716687cd66),
    ("300.twolf", "MSan", 0xb85b2b5099ef7db7),
    ("300.twolf", "Usher_TL", 0xfba138b8b8b3d3b2),
    ("300.twolf", "Usher_TL+AT", 0x21956a7d30e0bd13),
    ("300.twolf", "Usher_OptI", 0x700e87e70f0f69ea),
    ("300.twolf", "Usher", 0x21b3204f63e63f7a),
    ("300.twolf", "MSan/bit", 0xb85b2b5099ef7db7),
    ("300.twolf", "Usher/bit", 0x21b3204f63e63f7a),
];

#[test]
fn instrumented_runs_match_pinned_digests() {
    let configs: Vec<Config> = Config::ALL
        .into_iter()
        .chain([Config::MSAN_BIT, Config::USHER_BIT])
        .collect();
    let opts = RunOptions::default();
    let mut actual: Vec<(&str, &str, u64)> = Vec::new();
    for w in all_workloads(Scale::TEST) {
        let m = w.compile_o0im().expect(w.name);
        actual.push((w.name, "native", digest(&run(&m, None, &opts))));
        for cfg in &configs {
            let plan = run_config(&m, *cfg).plan;
            actual.push((w.name, cfg.name, digest(&run(&m, Some(&plan), &opts))));
        }
    }
    if actual != PINNED {
        let mut table = String::new();
        for (w, c, d) in &actual {
            writeln!(table, "    (\"{w}\", \"{c}\", {d:#018x}),").unwrap();
        }
        let diverged: Vec<_> = actual
            .iter()
            .filter(|row| !PINNED.contains(row))
            .map(|(w, c, _)| format!("{w} under {c}"))
            .collect();
        panic!(
            "{} run(s) diverged from the pinned digests: {diverged:?}\nactual table:\n{table}",
            diverged.len()
        );
    }
}
