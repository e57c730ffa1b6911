//! The build uses nothing from outside the workspace: every package
//! `Cargo.lock` resolves is a workspace member. A crates.io dependency,
//! or a `[patch]` stand-in for one, would show up as a package whose name
//! no member manifest declares.

use std::path::Path;

#[test]
fn lockfile_locks_only_workspace_members() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).unwrap();
    let packages: Vec<&str> = lock.split("[[package]]").skip(1).collect();
    assert!(!packages.is_empty(), "Cargo.lock has no [[package]]");
    let strangers: Vec<&str> = packages
        .iter()
        .map(|p| {
            let name = p.lines().find_map(|l| l.strip_prefix("name = ")).unwrap();
            (name.trim_matches('"'), p)
        })
        .filter(|(name, p)| {
            let declared = [root.to_path_buf(), root.join("crates").join(name)]
                .iter()
                .filter_map(|dir| std::fs::read_to_string(dir.join("Cargo.toml")).ok())
                .any(|m| m.contains(&format!("name = \"{name}\"")));
            !declared || p.contains("source = ")
        })
        .map(|(name, _)| name)
        .collect();
    assert!(
        strangers.is_empty(),
        "Cargo.lock locks packages from outside the workspace: {strangers:?}"
    );
}
