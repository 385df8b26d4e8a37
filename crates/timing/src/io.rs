//! Plain-text save/load for [`DelaySlewLibrary`].
//!
//! Characterization takes minutes at paper scale, so libraries are cached on
//! disk. With no `serde_json` in the sanctioned dependency set, the format
//! is a simple line-oriented text file (whitespace-separated tokens,
//! full-precision floats), with a version header so future layouts can
//! evolve.

use crate::fit::PolyFit;
use crate::library::{BranchFns, DelaySlewLibrary, SingleWireFns};
use cts_spice::{BufferType, WireParams};
use std::fmt;
use std::fs;
use std::path::Path;

const MAGIC: &str = "ctslib-v1";

/// Error from parsing a library file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseLibraryError {
    /// 1-based line number, when attributable.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseLibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "library parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseLibraryError {}

fn err(line: usize, message: impl Into<String>) -> ParseLibraryError {
    ParseLibraryError {
        line,
        message: message.into(),
    }
}

/// Serializes a library to the text format.
pub fn save_library_string(lib: &DelaySlewLibrary) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("vdd {:.17e}\n", lib.vdd()));
    out.push_str(&format!(
        "wire {:.17e} {:.17e}\n",
        lib.wire().r_per_um(),
        lib.wire().c_per_um()
    ));
    out.push_str(&format!("buffers {}\n", lib.buffers().len()));
    for b in lib.buffers() {
        out.push_str(&format!("buffer {} {:.17e}\n", b.name(), b.size()));
    }
    let nb = lib.buffers().len();
    for d in 0..nb {
        for l in 0..nb {
            let fns = &lib.single_slice()[d * nb + l];
            for (kind, fit) in [
                ("intrinsic", &fns.intrinsic),
                ("wire_delay", &fns.wire_delay),
                ("wire_slew", &fns.wire_slew),
            ] {
                push_fit(&mut out, &format!("single {d} {l} {kind}"), fit);
            }
        }
    }
    for ((d, ll, lr), fns) in lib.branch_slice() {
        for (kind, fit) in [
            ("intrinsic", &fns.intrinsic),
            ("left_delay", &fns.left_delay),
            ("right_delay", &fns.right_delay),
            ("left_slew", &fns.left_slew),
            ("right_slew", &fns.right_slew),
        ] {
            push_fit(&mut out, &format!("branch {d} {ll} {lr} {kind}"), fit);
        }
    }
    out.push_str("end\n");
    out
}

fn push_fit(out: &mut String, header: &str, fit: &PolyFit) {
    let rec = fit.to_record();
    out.push_str(header);
    out.push_str(&format!(" {}", rec.len()));
    for v in rec {
        out.push_str(&format!(" {v:.17e}"));
    }
    out.push('\n');
}

/// Parses a library from the text format.
///
/// # Errors
///
/// Returns [`ParseLibraryError`] with a line number for malformed input.
pub fn load_library_str(text: &str) -> Result<DelaySlewLibrary, ParseLibraryError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let (ln, magic) = lines.next().ok_or_else(|| err(1, "empty file"))?;
    if magic.trim() != MAGIC {
        return Err(err(ln, format!("bad magic, expected {MAGIC}")));
    }

    let mut vdd = None;
    let mut wire = None;
    let mut buffers: Vec<BufferType> = Vec::new();
    let mut expected_buffers = 0usize;
    struct FitSlot {
        key: Vec<usize>,
        kind: String,
        fit: PolyFit,
        is_branch: bool,
    }
    let mut fits: Vec<FitSlot> = Vec::new();

    for (ln, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let head = tok.next().expect("non-empty line");
        match head {
            "end" => break,
            "vdd" => {
                vdd = Some(parse_f64(tok.next(), ln)?);
            }
            "wire" => {
                let r = parse_f64(tok.next(), ln)?;
                let c = parse_f64(tok.next(), ln)?;
                wire = Some(WireParams::new(r, c));
            }
            "buffers" => {
                expected_buffers = parse_usize(tok.next(), ln)?;
            }
            "buffer" => {
                let name = tok.next().ok_or_else(|| err(ln, "missing buffer name"))?;
                let size = parse_f64(tok.next(), ln)?;
                buffers.push(BufferType::new(name, size));
            }
            "single" | "branch" => {
                let is_branch = head == "branch";
                let nkeys = if is_branch { 3 } else { 2 };
                let mut key = Vec::with_capacity(nkeys);
                for _ in 0..nkeys {
                    key.push(parse_usize(tok.next(), ln)?);
                }
                let kind = tok
                    .next()
                    .ok_or_else(|| err(ln, "missing fit kind"))?
                    .to_string();
                // The count is untrusted: grow the record as tokens arrive
                // instead of preallocating by it.
                let n = parse_usize(tok.next(), ln)?;
                let mut rec = Vec::new();
                for _ in 0..n {
                    rec.push(parse_f64(tok.next(), ln)?);
                }
                if tok.next().is_some() {
                    return Err(err(ln, "trailing tokens after fit record"));
                }
                let fit =
                    PolyFit::from_record(&rec).ok_or_else(|| err(ln, "malformed fit record"))?;
                // Surfaces are (slew, length); volumes are (slew, l_left,
                // l_right). Anything else would only fail at query time.
                if fit.dims() != nkeys {
                    return Err(err(
                        ln,
                        format!("{head} fit must have {nkeys} dims, found {}", fit.dims()),
                    ));
                }
                fits.push(FitSlot {
                    key,
                    kind,
                    fit,
                    is_branch,
                });
            }
            other => return Err(err(ln, format!("unknown directive '{other}'"))),
        }
    }

    let vdd = vdd.ok_or_else(|| err(0, "missing vdd"))?;
    let wire = wire.ok_or_else(|| err(0, "missing wire"))?;
    if buffers.len() != expected_buffers {
        return Err(err(
            0,
            format!(
                "buffer count mismatch: header says {expected_buffers}, found {}",
                buffers.len()
            ),
        ));
    }
    let nb = buffers.len();
    if nb == 0 {
        return Err(err(0, "library has no buffers"));
    }

    let find2 = |d: usize, l: usize, kind: &str| -> Result<PolyFit, ParseLibraryError> {
        fits.iter()
            .find(|f| !f.is_branch && f.key == [d, l] && f.kind == kind)
            .map(|f| f.fit.clone())
            .ok_or_else(|| err(0, format!("missing single fit ({d},{l}) {kind}")))
    };
    let mut single = Vec::with_capacity(nb * nb);
    for d in 0..nb {
        for l in 0..nb {
            single.push(SingleWireFns {
                intrinsic: find2(d, l, "intrinsic")?,
                wire_delay: find2(d, l, "wire_delay")?,
                wire_slew: find2(d, l, "wire_slew")?,
            });
        }
    }

    let find3 =
        |d: usize, ll: usize, lr: usize, kind: &str| -> Result<PolyFit, ParseLibraryError> {
            fits.iter()
                .find(|f| f.is_branch && f.key == [d, ll, lr] && f.kind == kind)
                .map(|f| f.fit.clone())
                .ok_or_else(|| err(0, format!("missing branch fit ({d},{ll},{lr}) {kind}")))
        };
    let mut branch = Vec::new();
    for d in 0..nb {
        for ll in 0..nb {
            for lr in ll..nb {
                branch.push((
                    (d, ll, lr),
                    BranchFns {
                        intrinsic: find3(d, ll, lr, "intrinsic")?,
                        left_delay: find3(d, ll, lr, "left_delay")?,
                        right_delay: find3(d, ll, lr, "right_delay")?,
                        left_slew: find3(d, ll, lr, "left_slew")?,
                        right_slew: find3(d, ll, lr, "right_slew")?,
                    },
                ));
            }
        }
    }

    Ok(DelaySlewLibrary::from_parts(
        vdd, wire, buffers, single, branch,
    ))
}

fn parse_f64(tok: Option<&str>, line: usize) -> Result<f64, ParseLibraryError> {
    let t = tok.ok_or_else(|| err(line, "missing number"))?;
    t.parse::<f64>()
        .map_err(|e| err(line, format!("bad float '{t}': {e}")))
}

fn parse_usize(tok: Option<&str>, line: usize) -> Result<usize, ParseLibraryError> {
    let t = tok.ok_or_else(|| err(line, "missing integer"))?;
    t.parse::<usize>()
        .map_err(|e| err(line, format!("bad integer '{t}': {e}")))
}

/// Saves a library to a file.
///
/// # Errors
///
/// Returns the underlying I/O error on failure.
pub fn save_library_file(lib: &DelaySlewLibrary, path: impl AsRef<Path>) -> std::io::Result<()> {
    fs::write(path, save_library_string(lib))
}

/// Loads a library from a file.
///
/// # Errors
///
/// Returns an I/O error (wrapped) or a parse error message.
pub fn load_library_file(path: impl AsRef<Path>) -> Result<DelaySlewLibrary, String> {
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
    load_library_str(&text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::tests_support::synthetic_library;

    #[test]
    fn roundtrip_preserves_library() {
        let lib = synthetic_library();
        let text = save_library_string(&lib);
        let back = load_library_str(&text).expect("roundtrip parse");
        assert_eq!(lib, back);
    }

    #[test]
    fn roundtrip_preserves_query_results() {
        use crate::library::{BufferId, Load};
        let lib = synthetic_library();
        let back = load_library_str(&save_library_string(&lib)).unwrap();
        let q = |l: &DelaySlewLibrary| {
            l.single_wire(BufferId(1), Load::Buffer(BufferId(0)), 37.5e-12, 512.0)
        };
        assert_eq!(q(&lib), q(&back));
    }

    #[test]
    fn bad_magic_rejected() {
        let e = load_library_str("nonsense\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("magic"));
    }

    #[test]
    fn truncated_fit_rejected() {
        let lib = synthetic_library();
        let text = save_library_string(&lib);
        // Drop the last line ("end") and the one before it (a fit).
        let cut: Vec<&str> = text.lines().collect();
        let truncated = cut[..cut.len() - 2].join("\n");
        assert!(load_library_str(&truncated).is_err());
    }

    #[test]
    fn corrupt_float_reported_with_line() {
        let lib = synthetic_library();
        let text = save_library_string(&lib).replace("vdd 1.1", "vdd abc");
        let e = load_library_str(&text).unwrap_err();
        assert!(e.message.contains("bad float"), "{e}");
    }

    /// `text` with the first fit line starting with `prefix` replaced by
    /// `line`.
    fn with_fit_line(text: &str, prefix: &str, line: &str) -> String {
        let mut replaced = false;
        text.lines()
            .map(|l| {
                if !replaced && l.starts_with(prefix) {
                    replaced = true;
                    line.to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn huge_record_count_is_an_error_not_an_abort() {
        let text = save_library_string(&synthetic_library());
        let bad = with_fit_line(
            &text,
            "single 0 0 wire_delay",
            "single 0 0 wire_delay 999999999999999999",
        );
        let e = load_library_str(&bad).unwrap_err();
        assert!(e.message.contains("missing number"), "{e}");
    }

    #[test]
    fn huge_dims_and_order_are_rejected_before_the_basis_is_built() {
        let text = save_library_string(&synthetic_library());
        let bad = with_fit_line(
            &text,
            "single 0 0 wire_delay",
            "single 0 0 wire_delay 3 30 30 0",
        );
        let e = load_library_str(&bad).unwrap_err();
        assert!(e.message.contains("malformed fit record"), "{e}");
    }

    #[test]
    fn fractional_dims_are_rejected() {
        let text = save_library_string(&synthetic_library());
        let line = text
            .lines()
            .find(|l| l.starts_with("single 0 0 intrinsic"))
            .unwrap();
        let mut tok: Vec<String> = line.split_whitespace().map(String::from).collect();
        tok[5] = "2.5".to_string(); // record[0] = dims
        let bad = with_fit_line(&text, "single 0 0 intrinsic", &tok.join(" "));
        let e = load_library_str(&bad).unwrap_err();
        assert!(e.message.contains("malformed fit record"), "{e}");
    }

    #[test]
    fn fits_of_the_wrong_dimensionality_are_rejected() {
        let text = save_library_string(&synthetic_library());
        let fit_of = |prefix: &str| -> Vec<String> {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap()
                .split_whitespace()
                .map(String::from)
                .collect()
        };
        // A volume record under a single-wire header, and vice versa.
        let volume = fit_of("branch 0 0 0 intrinsic");
        let single = format!("single 0 0 intrinsic {}", volume[5..].join(" "));
        let bad = with_fit_line(&text, "single 0 0 intrinsic", &single);
        let e = load_library_str(&bad).unwrap_err();
        assert!(e.message.contains("single fit must have 2 dims"), "{e}");

        let surface = fit_of("single 0 0 intrinsic");
        let branch = format!("branch 0 0 0 intrinsic {}", surface[4..].join(" "));
        let bad = with_fit_line(&text, "branch 0 0 0 intrinsic", &branch);
        let e = load_library_str(&bad).unwrap_err();
        assert!(e.message.contains("branch fit must have 3 dims"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let lib = synthetic_library();
        let mut text = save_library_string(&lib);
        text = text.replacen('\n', "\n# a comment\n\n", 1);
        assert!(load_library_str(&text).is_ok());
    }

    #[test]
    fn file_roundtrip() {
        let lib = synthetic_library();
        let dir = std::env::temp_dir().join("ctslib_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lib.txt");
        save_library_file(&lib, &path).unwrap();
        let back = load_library_file(&path).unwrap();
        assert_eq!(lib, back);
        let missing = load_library_file(dir.join("nope.txt"));
        assert!(missing.is_err());
    }
}
