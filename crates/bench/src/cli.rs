//! What the bench binaries share at the process boundary: the `--flag
//! value` reader, the latency percentile, and the writer of the
//! `BENCH_*.json` reports (the workspace deliberately has no serde).

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// The `--flag value` command line of a bench binary. Each [`Args::take`]
/// removes one flag and its value; [`Args::finish`] refuses what is left,
/// [`Args::rest`] hands it over.
pub struct Args(Vec<String>);

impl Args {
    /// The process's arguments.
    pub fn from_env() -> Args {
        Args(std::env::args().skip(1).collect())
    }

    /// The value of `flag`, or `default` when the flag is absent. Exits with
    /// status 2 when the flag ends the line or its value does not parse as
    /// a `T`.
    pub fn take<T: FromStr>(&mut self, flag: &str, default: T) -> T {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return default;
        };
        if at + 1 == self.0.len() {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        }
        let value = self.0.remove(at + 1);
        self.0.remove(at);
        value.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: cannot read {value:?}");
            std::process::exit(2)
        })
    }

    /// What no [`Args::take`] asked for, in order (`report`'s figure name).
    pub fn rest(self) -> Vec<String> {
        self.0
    }

    /// Exits with status 2 if an argument no [`Args::take`] asked for
    /// remains.
    pub fn finish(self) {
        if let Some(other) = self.rest().first() {
            eprintln!("unknown argument {other}");
            std::process::exit(2);
        }
    }
}

/// The `p`-quantile (nearest rank) of ascending `sorted`, 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A JSON object under construction, members in insertion order. Nested
/// values render on one line; [`JsonObject::document`] lays the outermost
/// object out one member — and one [`JsonObject::rows`] element — per line.
#[derive(Default)]
pub struct JsonObject(Vec<(&'static str, String)>);

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// A number or boolean member, as `Display` prints it.
    pub fn value(mut self, key: &'static str, value: impl Display) -> JsonObject {
        self.0.push((key, value.to_string()));
        self
    }

    /// A number with `decimals` digits after the point.
    pub fn fixed(self, key: &'static str, value: f64, decimals: usize) -> JsonObject {
        self.value(key, format_args!("{value:.decimals$}"))
    }

    /// A string member.
    pub fn text(self, key: &'static str, value: &str) -> JsonObject {
        let mut quoted = String::from('"');
        for c in value.chars() {
            match c {
                '"' | '\\' => quoted.extend(['\\', c]),
                c if c < ' ' => write!(quoted, "\\u{:04x}", c as u32).expect("write to a String"),
                c => quoted.push(c),
            }
        }
        quoted.push('"');
        self.value(key, quoted)
    }

    /// A nested object.
    pub fn object(self, key: &'static str, value: JsonObject) -> JsonObject {
        self.value(key, value.inline())
    }

    /// An array of objects on one line.
    pub fn list(self, key: &'static str, items: impl IntoIterator<Item = JsonObject>) -> JsonObject {
        let items: Vec<String> = items.into_iter().map(|o| o.inline()).collect();
        self.value(key, format_args!("[{}]", items.join(", ")))
    }

    /// An array of objects, one per line of the document.
    pub fn rows(self, key: &'static str, rows: impl IntoIterator<Item = JsonObject>) -> JsonObject {
        let rows: Vec<String> = rows.into_iter().map(|o| format!("    {}", o.inline())).collect();
        self.value(key, format_args!("[\n{}\n  ]", rows.join(",\n")))
    }

    fn inline(&self) -> String {
        let members: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", members.join(", "))
    }

    /// The finished report, newline-terminated.
    pub fn document(&self) -> String {
        let members: Vec<String> = self.0.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
        format!("{{\n{}\n}}\n", members.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_removes_a_flag_and_its_value_and_defaults_the_rest() {
        let mut args = Args(["--seed", "7", "--out", "x.json"].map(String::from).to_vec());
        assert_eq!(args.take("--out", String::from("y.json")), "x.json");
        assert_eq!(args.take("--rows", 50_000usize), 50_000);
        assert_eq!(args.take("--seed", 42u64), 7);
        assert!(args.0.is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!((percentile(&v, 0.0), percentile(&v, 0.5), percentile(&v, 0.99)), (1, 51, 99));
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn the_document_is_one_member_and_one_row_per_line() {
        let row = |n: u32| JsonObject::new().value("n", n).list("in", [JsonObject::new().value("ok", true)]);
        let doc = JsonObject::new()
            .text("bench", "a \"b\"\\\n")
            .fixed("qps", 2.0 / 3.0, 3)
            .object("mix", JsonObject::new().value("topk", 11).value("hull", 10))
            .rows("configs", [row(1), row(2)])
            .document();
        assert_eq!(
            doc,
            "{\n  \"bench\": \"a \\\"b\\\"\\\\\\u000a\",\n  \"qps\": 0.667,\n  \
             \"mix\": {\"topk\": 11, \"hull\": 10},\n  \"configs\": [\n    \
             {\"n\": 1, \"in\": [{\"ok\": true}]},\n    {\"n\": 2, \"in\": [{\"ok\": true}]}\n  ]\n}\n"
        );
    }
}
