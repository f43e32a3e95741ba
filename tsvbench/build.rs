//! Records what the benchmark was built from: the compiler version and a
//! digest of the repository sources the benchmark links, so every run record
//! names the code it measured even in a checkout without git metadata.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR"));
    let repo = manifest.join("..");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version =
        command_line(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".to_string());

    let mut files = Vec::new();
    for root in ["crates", "shims", "Cargo.toml", "Cargo.lock"] {
        collect(&repo.join(root), &mut files);
        println!("cargo:rerun-if-changed=../{root}");
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for file in &files {
        let relative = file.strip_prefix(&repo).unwrap_or(file);
        let bytes = fs::read(file).unwrap_or_default();
        for byte in relative.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    println!("cargo:rustc-env=TSVBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=TSVBENCH_SOURCE_DIGEST={hash:016x}");
}

/// First line of a command's standard output, if it ran successfully.
fn command_line(command: &mut Command) -> Option<String> {
    let output = command.output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|line| line.trim().to_string())
}

/// Every regular file under `path` (or `path` itself), skipping build output.
fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    let Ok(meta) = fs::symlink_metadata(path) else {
        return;
    };
    if meta.is_file() {
        out.push(path.to_path_buf());
    } else if meta.is_dir() && path.file_name().is_none_or(|n| n != "target") {
        if let Ok(entries) = fs::read_dir(path) {
            for entry in entries.flatten() {
                collect(&entry.path(), out);
            }
        }
    }
}
