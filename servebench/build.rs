//! Records the build profile and compiler flags for the run header.

fn main() {
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    let opt_level = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "unknown".into());
    let rustflags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=SERVEBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=SERVEBENCH_OPT_LEVEL={opt_level}");
    println!("cargo:rustc-env=SERVEBENCH_RUSTFLAGS={rustflags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
