//! Committed golden outputs: a regenerated text must equal its file
//! byte for byte.
//!
//! [`compare`] is the pure diff; [`check`] reads the golden file and
//! diffs against it, or, when the `SABER_BLESS` environment variable is
//! set, rewrites the file with the regenerated text instead. A blessing
//! run therefore passes on any output: review the rewritten files with
//! `git diff` before committing them.

use std::fs;
use std::path::Path;

/// Compares a regenerated text with its golden text.
///
/// # Errors
///
/// Returns a message naming the first line that differs (1-based) and
/// showing the golden and the regenerated line, each with its line
/// ending, so a missing final newline and an extra last line show too.
pub fn compare(golden: &str, actual: &str) -> Result<(), String> {
    let mut golden_lines = golden.split_inclusive('\n');
    let mut actual_lines = actual.split_inclusive('\n');
    let mut number = 0;
    loop {
        number += 1;
        match (golden_lines.next(), actual_lines.next()) {
            (None, None) => return Ok(()),
            (want, got) if want == got => {}
            (want, got) => {
                let show =
                    |line: Option<&str>| line.map_or("<end of text>".into(), |l| format!("{l:?}"));
                return Err(format!(
                    "line {number} differs\n  golden: {}\n  actual: {}",
                    show(want),
                    show(got)
                ));
            }
        }
    }
}

/// Checks `actual` against the golden file at `path`; with
/// `SABER_BLESS` set, writes `actual` to `path` instead and passes.
///
/// # Errors
///
/// Returns a message naming `path` when the file is missing or
/// unreadable, when blessing cannot write it, or when it differs from
/// `actual` (see [`compare`]).
pub fn check(path: &Path, actual: &str) -> Result<(), String> {
    let shown = path.display();
    if std::env::var_os("SABER_BLESS").is_some() {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)
                .map_err(|e| format!("{shown}: cannot create its folder: {e}"))?;
        }
        return fs::write(path, actual).map_err(|e| format!("{shown}: cannot write: {e}"));
    }
    let golden = fs::read_to_string(path)
        .map_err(|e| format!("{shown}: cannot read ({e}); write it with SABER_BLESS=1"))?;
    compare(&golden, actual).map_err(|diff| {
        format!("{shown}: {diff}\n  (rewrite with SABER_BLESS=1 and review the diff)")
    })
}

#[cfg(test)]
mod tests {
    use super::compare;

    const GOLDEN: &str = "arch cycles\nLW 18928\nHS-II 131\n";

    #[test]
    fn equal_texts_pass() {
        assert_eq!(compare(GOLDEN, GOLDEN), Ok(()));
        assert_eq!(compare("", ""), Ok(()));
    }

    #[test]
    fn a_changed_line_names_its_number_and_shows_both_lines() {
        let err = compare(GOLDEN, "arch cycles\nLW 18929\nHS-II 131\n").unwrap_err();
        assert!(err.starts_with("line 2 differs"), "{err}");
        assert!(err.contains(r#"golden: "LW 18928\n""#), "{err}");
        assert!(err.contains(r#"actual: "LW 18929\n""#), "{err}");
    }

    #[test]
    fn a_missing_trailing_newline_fails() {
        let err = compare(GOLDEN, GOLDEN.trim_end()).unwrap_err();
        assert!(err.starts_with("line 3 differs"), "{err}");
        assert!(err.contains(r#"golden: "HS-II 131\n""#), "{err}");
        assert!(err.contains(r#"actual: "HS-II 131""#), "{err}");
    }

    #[test]
    fn an_extra_last_line_fails() {
        let err = compare(GOLDEN, &format!("{GOLDEN}HS-I 256\n")).unwrap_err();
        assert!(err.starts_with("line 4 differs"), "{err}");
        assert!(err.contains("golden: <end of text>"), "{err}");
        assert!(err.contains(r#"actual: "HS-I 256\n""#), "{err}");
    }
}
