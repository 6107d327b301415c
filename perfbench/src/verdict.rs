//! Request verdicts and the committed verdict reference.
//!
//! Every request the benchmark makes ends in a [`Verdict`]: the shape
//! of its report, counted. The reference files under `reference/` pin
//! the verdict of every request a workload can make; they were produced
//! once on the simulator's slow reference tier (`--write-reference`)
//! and every measured request is checked against them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use advm::campaign::CampaignReport;
use advm::wire::JsonValue;

/// The counted shape of one request's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Scenario runs (test × platform).
    pub runs: u64,
    /// Passing runs.
    pub passed: u64,
    /// Failing runs.
    pub failed: u64,
    /// Tests whose platforms disagree.
    pub divergences: u64,
    /// Simulated instructions retired across every run.
    pub insns: u64,
    /// Distinct images the campaign plan builds.
    pub unique_builds: u64,
    /// Checkers mined and armed (fuzz jobs; 0 otherwise).
    pub mined: u64,
}

const FIELDS: [&str; 7] = [
    "runs",
    "passed",
    "failed",
    "divergences",
    "insns",
    "unique_builds",
    "mined",
];

impl Verdict {
    fn values(&self) -> [u64; 7] {
        [
            self.runs,
            self.passed,
            self.failed,
            self.divergences,
            self.insns,
            self.unique_builds,
            self.mined,
        ]
    }

    /// The verdict of an in-process campaign report.
    pub fn of_report(report: &CampaignReport, mined: usize) -> Self {
        Self {
            runs: report.total() as u64,
            passed: report.passed() as u64,
            failed: report.failed() as u64,
            divergences: report.divergences().len() as u64,
            insns: report.perf().instructions,
            unique_builds: report.unique_builds() as u64,
            mined: mined as u64,
        }
    }

    /// The verdict of a campaign report document (`CampaignReport::to_json`).
    ///
    /// # Errors
    ///
    /// The missing or malformed field.
    pub fn of_campaign_json(campaign: &JsonValue, mined: u64) -> Result<Self, String> {
        let field = |value: &JsonValue, key: &str| {
            value
                .u64_field(key)
                .map_err(|e| format!("report field `{key}`: {e}"))
        };
        let cache = campaign.get("cache").ok_or("report lacks `cache`")?;
        let perf = campaign.get("perf").ok_or("report lacks `perf`")?;
        let divergences = campaign
            .get("divergences")
            .and_then(JsonValue::as_array)
            .ok_or("report lacks `divergences`")?;
        Ok(Self {
            runs: field(campaign, "total")?,
            passed: field(campaign, "passed")?,
            failed: field(campaign, "failed")?,
            divergences: divergences.len() as u64,
            insns: field(perf, "instructions")?,
            unique_builds: field(cache, "unique_builds")?,
            mined,
        })
    }

    /// Renders the verdict as one JSON object.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = FIELDS
            .iter()
            .zip(self.values())
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", parts.join(","))
    }

    /// Parses [`Verdict::to_json`] output.
    ///
    /// # Errors
    ///
    /// The missing field.
    pub fn from_value(value: &JsonValue) -> Result<Self, String> {
        let mut v = [0u64; 7];
        for (slot, key) in v.iter_mut().zip(FIELDS) {
            *slot = value
                .u64_field(key)
                .map_err(|e| format!("verdict field `{key}`: {e}"))?;
        }
        Ok(Self {
            runs: v[0],
            passed: v[1],
            failed: v[2],
            divergences: v[3],
            insns: v[4],
            unique_builds: v[5],
            mined: v[6],
        })
    }
}

/// The committed verdicts of one workload, keyed by request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Workload name.
    pub workload: String,
    /// Expected verdict per request key.
    pub requests: BTreeMap<String, Verdict>,
}

/// How the reference verdicts were produced.
pub const REFERENCE_TIER: &str = "cache(false) decode_cache(false) superblocks(false) workers(1); \
     unique_builds from the default build plan";

impl Reference {
    /// The committed reference of a workload.
    ///
    /// # Errors
    ///
    /// An unknown workload or a malformed file.
    pub fn committed(workload: &str) -> Result<Self, String> {
        let text = match workload {
            "port_cold" => include_str!("../reference/port_cold.json"),
            "serve_warm" => include_str!("../reference/serve_warm.json"),
            "exec_long" => include_str!("../reference/exec_long.json"),
            other => return Err(format!("no reference for workload `{other}`")),
        };
        Self::parse(text)
    }

    /// Parses a reference document.
    ///
    /// # Errors
    ///
    /// The first malformed part.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("reference: {e}"))?;
        let workload = doc
            .str_field("workload")
            .map_err(|e| format!("reference: {e}"))?
            .to_owned();
        let requests = doc
            .get("requests")
            .and_then(JsonValue::as_object)
            .ok_or("reference lacks `requests`")?
            .iter()
            .map(|(key, value)| Ok((key.clone(), Verdict::from_value(value)?)))
            .collect::<Result<_, String>>()?;
        Ok(Self { workload, requests })
    }

    /// Renders the reference document (one request per line).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"workload\": \"{}\",\n  \"tier\": \"{REFERENCE_TIER}\",\n  \"requests\": {{",
            self.workload
        );
        for (i, (key, verdict)) in self.requests.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{key}\": {}", verdict.to_json());
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Checks one request's verdict.
    ///
    /// # Errors
    ///
    /// Names the request and every differing field.
    pub fn check(&self, key: &str, got: &Verdict) -> Result<(), String> {
        let expected = self
            .requests
            .get(key)
            .ok_or_else(|| format!("request `{key}` has no reference verdict"))?;
        let diffs: Vec<String> = FIELDS
            .iter()
            .zip(expected.values().iter().zip(got.values()))
            .filter(|(_, (e, g))| **e != *g)
            .map(|(k, (e, g))| format!("{k} {g} (expected {e})"))
            .collect();
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!("request `{key}`: {}", diffs.join(", ")))
        }
    }
}
