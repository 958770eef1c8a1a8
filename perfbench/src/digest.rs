//! Result digests: FNV-1a over a serialized `RunResult`, checked against
//! the committed table in `expected_digests.tsv`.
//!
//! Every cell, sweep point and served job the benchmark runs has an
//! entry. The cell and job sets do not depend on the benchmark seed (the
//! seed only reorders and samples them), so the table holds for every
//! seed. `perfbench digests` regenerates it by direct, cache-free runs.

use std::collections::BTreeMap;

use alloc_locality::RunResult;
use sim_mem::stream::Fnv64;

/// The committed expected digests, one `key<TAB>hex` line each.
const COMMITTED: &str = include_str!("../expected_digests.tsv");

/// FNV-1a of a byte string.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a of a result's JSON serialization.
pub fn result_digest(result: &RunResult) -> u64 {
    digest_bytes(serde_json::to_string(result).expect("run results serialize").as_bytes())
}

/// The `result` section of a run-report JSONL line, verbatim as served.
/// `result` is the report's last field, so the section runs from its key
/// to the line's closing brace.
pub fn result_section(line: &str) -> Option<&str> {
    const KEY: &str = "\"result\":";
    let line = line.trim_end();
    let start = line.rfind(KEY)? + KEY.len();
    let section = line.get(start..line.len().checked_sub(1)?)?;
    (section.starts_with('{') && section.ends_with('}')).then_some(section)
}

/// A table of expected digests by key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected(BTreeMap<String, u64>);

impl Expected {
    /// The table committed beside the benchmark.
    pub fn committed() -> Expected {
        Expected::parse(COMMITTED).expect("the committed digest table parses")
    }

    /// Parses `key<TAB>16 hex digits` lines; blank lines and `#` comments
    /// are skipped.
    ///
    /// # Errors
    ///
    /// Names the first malformed or duplicated line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut table = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, hex) =
                line.split_once('\t').ok_or_else(|| format!("line {}: no tab", n + 1))?;
            let digest = u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("line {}: bad digest {hex:?}: {e}", n + 1))?;
            if table.insert(key.to_string(), digest).is_some() {
                return Err(format!("line {}: duplicate key {key:?}", n + 1));
            }
        }
        Ok(Expected(table))
    }

    /// Adds or replaces one entry.
    pub fn insert(&mut self, key: String, digest: u64) {
        self.0.insert(key, digest);
    }

    /// Checks one digest against the table.
    ///
    /// # Errors
    ///
    /// Describes the mismatch, or the missing key.
    pub fn check(&self, key: &str, digest: u64) -> Result<(), String> {
        match self.0.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!("{key}: digest {digest:016x}, expected {want:016x}")),
            None => Err(format!("{key}: no expected digest committed")),
        }
    }

    /// The table in its committed text form.
    pub fn to_tsv(&self) -> String {
        self.0.iter().map(|(key, digest)| format!("{key}\t{digest:016x}\n")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_bit_is_a_mismatch() {
        let line = r#"{"schema":"alloc-locality.run-report","metrics":{"a.result_x":1},"result":{"program":"make","misses":12345}}"#;
        let section = result_section(line).expect("well-formed line");
        assert_eq!(section, r#"{"program":"make","misses":12345}"#);
        let mut expected = Expected::default();
        expected.insert("serve/x".into(), digest_bytes(section.as_bytes()));
        assert!(expected.check("serve/x", digest_bytes(section.as_bytes())).is_ok());

        // '4' (0x34) -> '5' (0x35): the lowest bit of one byte.
        let mut bytes = line.as_bytes().to_vec();
        let at = line.find("12345").expect("digits present") + 3;
        bytes[at] ^= 1;
        let flipped = String::from_utf8(bytes).expect("still ASCII");
        let section = result_section(&flipped).expect("still well-formed");
        assert!(expected.check("serve/x", digest_bytes(section.as_bytes())).is_err());
    }

    #[test]
    fn unknown_keys_and_bad_lines_are_reported() {
        assert!(Expected::default().check("matrix/a/b", 1).is_err());
        assert!(Expected::parse("k\tzz\n").is_err());
        assert!(Expected::parse("k 00\n").is_err());
        assert!(Expected::parse("k\t01\nk\t02\n").is_err());
        let table = Expected::parse("# header\n\nk\t00000000000000ff\n").expect("valid");
        assert_eq!(table.to_tsv(), "k\t00000000000000ff\n");
    }

    #[test]
    fn the_committed_table_parses() {
        let table = Expected::committed();
        assert!(!table.0.is_empty());
        assert!(table.0.keys().all(|k| k.contains('/')));
    }

    #[test]
    fn result_section_rejects_truncated_lines() {
        assert_eq!(result_section(r#"{"result":{"a":1}"#), None);
        assert_eq!(result_section(r#"{"metrics":{}}"#), None);
    }
}
