//! Writes every experiment's rendered output to disk, one file per
//! table/figure, so results can be diffed across code changes.

use crate::experiments as exp;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Renders every artifact into `dir` (created if missing): each file holds
/// its sections joined with `"\n"`. Returns the written paths in the order
/// their first section appears in paper order.
///
/// # Errors
///
/// Returns any I/O error from directory creation or file writes.
pub fn write_all(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<(&str, Vec<String>)> = Vec::new();
    let rendered = exp::render_sections(exp::default_render_workers());
    for (&(file, _), text) in exp::SECTIONS.iter().zip(rendered) {
        match files.iter_mut().find(|(name, _)| *name == file) {
            Some((_, texts)) => texts.push(text),
            None => files.push((file, vec![text])),
        }
    }
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (file, texts) in files {
        let path = dir.join(file);
        fs::write(&path, texts.join("\n"))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_every_artifact() {
        let dir = std::env::temp_dir().join(format!("llmsim_artifacts_{}", std::process::id()));
        let paths = write_all(&dir).expect("artifacts write");
        assert_eq!(paths.len(), 24);
        for p in &paths {
            let content = std::fs::read_to_string(p).expect("readable");
            assert!(content.len() > 100, "{} too small", p.display());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
