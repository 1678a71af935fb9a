//! Golden outputs, recorded from the library at the commit that added the
//! benchmark; regenerate with `perfbench --golden`. A performance change
//! must leave every value unchanged.

/// `mis-prufer-1m` total rounds, by instance seed.
pub const MIS_ROUNDS: [u64; 32] = [44; 32];

/// `edgecol-caterpillar-2t` total rounds, by instance seed.
pub const EDGECOL_ROUNDS: [u64; 32] = [587; 32];

/// `cert-roundtrip-1m` certified rounds, by instance seed.
pub const CERT_ROUNDS: [u64; 32] = [
    57, 57, 57, 57, 57, 57, 50, 67, 57, 67, 57, 52, 52, 57, 57, 52, 57, 57, 52, 57, 62, 47, 57, 52,
    57, 57, 52, 52, 52, 57, 52, 57,
];

/// FNV-1a of the rendered Full-profile tables, E1–E14.
pub const TABLES_FULL_HASH: u64 = 0x5332_6b10_e5bb_8f7d;

/// FNV-1a of the rendered Quick-profile tables (the set-up warm-up).
pub const TABLES_QUICK_HASH: u64 = 0x3f06_444b_3b6f_dc39;
