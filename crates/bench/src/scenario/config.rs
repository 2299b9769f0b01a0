//! The scenario config format: a deliberately small TOML subset parsed
//! with no dependencies.
//!
//! Supported syntax — enough for workloads-as-data, nothing more:
//!
//! ```toml
//! # comments and blank lines
//! [section]            # single table: scenario, mobility, population, source
//! [[section]]          # array-of-tables entry: cluster, fault
//! key = 3              # integers, floats
//! key = "text"         # strings (no escapes)
//! key = true           # booleans
//! key = [0.1, 0.9]     # flat arrays of numbers
//! ```
//!
//! Unknown sections and unknown keys are **errors**, not warnings — a
//! typo in a fault schedule must not silently run a different workload.
//! See `docs/SCENARIOS.md` for the schema.

use super::{
    Cluster, CountSpec, Fault, FaultKind, FracRect, InitSpec, MetricSpec, ModelSpec, ProtocolSpec,
    Scenario, ScenarioError, SourceSpec,
};

/// One parsed right-hand-side value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Str(String),
    Bool(bool),
    List(Vec<f64>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::List(_) => "array",
        }
    }
}

/// A `key = value` pair with its source line (for error messages).
#[derive(Debug)]
struct Entry {
    key: String,
    value: Value,
    line: usize,
}

/// One `[section]` or `[[section]]` block, entries in document order.
#[derive(Debug)]
struct Block {
    name: String,
    array: bool,
    line: usize,
    entries: Vec<Entry>,
}

fn perr(line: usize, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Parse {
        line,
        msg: msg.into(),
    }
}

fn parse_value(raw: &str, line: usize) -> Result<Value, ScenarioError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(perr(line, "missing value after '='"));
    }
    if let Some(body) = raw.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err(perr(line, "unterminated string"));
        };
        if body.contains('"') {
            return Err(perr(line, "strings may not contain '\"'"));
        }
        return Ok(Value::Str(body.to_string()));
    }
    if raw == "true" {
        return Ok(Value::Bool(true));
    }
    if raw == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = raw.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(perr(line, "unterminated array"));
        };
        let body = body.trim();
        let mut items = Vec::new();
        if !body.is_empty() {
            for piece in body.split(',') {
                let piece = piece.trim();
                let v: f64 = piece
                    .parse()
                    .map_err(|_| perr(line, format!("array item {piece:?} is not a number")))?;
                if !v.is_finite() {
                    return Err(perr(line, "array items must be finite"));
                }
                items.push(v);
            }
        }
        return Ok(Value::List(items));
    }
    let v: f64 = raw.parse().map_err(|_| {
        perr(
            line,
            format!("{raw:?} is not a number, string, boolean, or array"),
        )
    })?;
    if !v.is_finite() {
        return Err(perr(line, "numbers must be finite"));
    }
    Ok(Value::Num(v))
}

/// Tokenizes the config text into section blocks.
fn parse_blocks(text: &str) -> Result<Vec<Block>, ScenarioError> {
    let mut blocks: Vec<Block> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = idx + 1;
        // strip comments outside strings (strings may not contain '#')
        let content = match raw_line.split_once('#') {
            Some((before, _)) if !before.contains('"') || before.matches('"').count() % 2 == 0 => {
                before
            }
            _ => raw_line,
        };
        let content = content.trim();
        if content.is_empty() {
            continue;
        }
        if let Some(body) = content.strip_prefix("[[") {
            let Some(name) = body.strip_suffix("]]") else {
                return Err(perr(line, "malformed [[section]] header"));
            };
            blocks.push(Block {
                name: name.trim().to_string(),
                array: true,
                line,
                entries: Vec::new(),
            });
            continue;
        }
        if let Some(body) = content.strip_prefix('[') {
            let Some(name) = body.strip_suffix(']') else {
                return Err(perr(line, "malformed [section] header"));
            };
            blocks.push(Block {
                name: name.trim().to_string(),
                array: false,
                line,
                entries: Vec::new(),
            });
            continue;
        }
        let Some((key, value)) = content.split_once('=') else {
            return Err(perr(
                line,
                format!("expected 'key = value', got {content:?}"),
            ));
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(perr(line, format!("bad key {key:?}")));
        }
        let Some(block) = blocks.last_mut() else {
            return Err(perr(line, "key outside any [section]"));
        };
        block.entries.push(Entry {
            key: key.to_string(),
            value: parse_value(value, line)?,
            line,
        });
    }
    Ok(blocks)
}

/// Typed accessors over one block's entries; every `take_*` consumes the
/// key so leftovers can be reported as unknown.
struct Table {
    section: String,
    entries: Vec<Entry>,
}

impl Table {
    fn take(&mut self, key: &str) -> Option<Entry> {
        self.entries
            .iter()
            .position(|e| e.key == key)
            .map(|i| self.entries.remove(i))
    }

    fn take_f64(&mut self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(e) => match e.value {
                Value::Num(v) => Ok(Some(v)),
                other => Err(perr(
                    e.line,
                    format!("{key} must be a number, got {}", other.type_name()),
                )),
            },
        }
    }

    fn take_usize(&mut self, key: &str) -> Result<Option<usize>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(e) => match e.value {
                Value::Num(v) if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 => {
                    Ok(Some(v as usize))
                }
                // counts feed u32 engine state (agent ids, steps): an
                // oversized one is a precise error, not a silent wrap
                Value::Num(v) if v > u32::MAX as f64 => Err(perr(
                    e.line,
                    format!("{key} must fit in u32 (max {}), got {v}", u32::MAX),
                )),
                _ => Err(perr(e.line, format!("{key} must be a nonnegative integer"))),
            },
        }
    }

    fn take_u64(&mut self, key: &str) -> Result<Option<u64>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(e) => match e.value {
                // f64 loses precision past 2^53; seeds that large go in hex strings if ever needed
                Value::Num(v) if v >= 0.0 && v.fract() == 0.0 && v < 9.0e15 => Ok(Some(v as u64)),
                _ => Err(perr(e.line, format!("{key} must be a nonnegative integer"))),
            },
        }
    }

    fn take_str(&mut self, key: &str) -> Result<Option<(String, usize)>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(e) => match e.value {
                Value::Str(s) => Ok(Some((s, e.line))),
                other => Err(perr(
                    e.line,
                    format!("{key} must be a string, got {}", other.type_name()),
                )),
            },
        }
    }

    fn take_list(&mut self, key: &str) -> Result<Option<(Vec<f64>, usize)>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(e) => match e.value {
                Value::List(v) => Ok(Some((v, e.line))),
                other => Err(perr(
                    e.line,
                    format!("{key} must be an array, got {}", other.type_name()),
                )),
            },
        }
    }

    fn take_rect(&mut self, key: &str) -> Result<Option<FracRect>, ScenarioError> {
        match self.take_list(key)? {
            None => Ok(None),
            Some((v, line)) => {
                if v.len() != 4 {
                    return Err(perr(line, format!("{key} must be [x0, y0, x1, y1]")));
                }
                Ok(Some(FracRect {
                    x0: v[0],
                    y0: v[1],
                    x1: v[2],
                    y1: v[3],
                }))
            }
        }
    }

    fn finish(self) -> Result<(), ScenarioError> {
        if let Some(e) = self.entries.first() {
            return Err(perr(
                e.line,
                format!("unknown key {:?} in [{}]", e.key, self.section),
            ));
        }
        Ok(())
    }
}

fn require<T>(v: Option<T>, section: &str, key: &str) -> Result<T, ScenarioError> {
    v.ok_or_else(|| ScenarioError::Invalid(format!("[{section}] is missing required key {key:?}")))
}

/// Parses a scenario from config text and validates it.
///
/// # Errors
///
/// [`ScenarioError::Parse`] on malformed text and unknown
/// sections/keys; [`ScenarioError::Invalid`] on missing required keys or
/// semantic violations (see [`Scenario::validate`]).
///
/// # Examples
///
/// ```
/// let sc = fastflood_bench::scenario::parse_scenario(r#"
///     [scenario]
///     name = "tiny"
///     steps = 500
///     [mobility]
///     model = "mrwp"
///     side = 20.0
///     speed = 0.4
///     [population]
///     n = 100
///     radius = 2.0
///     [[fault]]
///     kind = "crash"
///     at = 10
///     frac = 0.2
/// "#)?;
/// assert_eq!(sc.name, "tiny");
/// assert_eq!(sc.faults.len(), 1);
/// # Ok::<(), fastflood_bench::scenario::ScenarioError>(())
/// ```
pub fn parse_scenario(text: &str) -> Result<Scenario, ScenarioError> {
    let blocks = parse_blocks(text)?;

    let mut name = None;
    let mut seed = 2010u64;
    let mut steps = None;
    let mut trials = 5usize;
    let mut metric = MetricSpec::Flooding;
    let mut model = None;
    let mut n = None;
    let mut radius = None;
    let mut init = InitSpec::Stationary;
    let mut protocol = ProtocolSpec::Flooding;
    let mut clusters = Vec::new();
    let mut source = SourceSpec::Random;
    let mut exits = Vec::new();
    let mut faults = Vec::new();

    let mut seen_single: Vec<String> = Vec::new();
    let mut fault_steps: Vec<u32> = Vec::new();
    for block in blocks {
        let mut t = Table {
            section: block.name.clone(),
            entries: block.entries,
        };
        match (block.name.as_str(), block.array) {
            (section @ ("scenario" | "mobility" | "population" | "source"), false) => {
                if seen_single.iter().any(|s| s == section) {
                    return Err(perr(block.line, format!("duplicate [{section}] section")));
                }
                seen_single.push(section.to_string());
            }
            ("cluster" | "fault", true) => {}
            (other, true) => {
                return Err(perr(
                    block.line,
                    format!("unknown array section [[{other}]]"),
                ));
            }
            (other, false) => {
                return Err(perr(block.line, format!("unknown section [{other}]")));
            }
        }
        match block.name.as_str() {
            "scenario" => {
                name = t.take_str("name")?.map(|(s, _)| s);
                if let Some(s) = t.take_u64("seed")? {
                    seed = s;
                }
                steps = t.take_usize("steps")?.map(|s| s as u32);
                if let Some(v) = t.take_usize("trials")? {
                    trials = v;
                }
                if let Some((s, line)) = t.take_str("metric")? {
                    metric = match s.as_str() {
                        "flooding" => MetricSpec::Flooding,
                        "evacuation-notice" => MetricSpec::EvacuationNotice,
                        // the legacy spelling suggested exit-arrival
                        // semantics the metric never had; refuse it
                        // loudly instead of silently re-interpreting
                        "evacuation" => {
                            return Err(perr(
                                line,
                                "metric \"evacuation\" was renamed to \
                                 \"evacuation-notice\" (it reports when the last \
                                 live agent learns of the order, not exit arrival)"
                                    .to_string(),
                            ));
                        }
                        other => {
                            return Err(perr(line, format!("unknown metric {other:?}")));
                        }
                    };
                }
            }
            "mobility" => {
                let (kind, kind_line) = require(t.take_str("model")?, "mobility", "model")?;
                let side = require(t.take_f64("side")?, "mobility", "side")?;
                model = Some(match kind.as_str() {
                    "mrwp" => ModelSpec::Mrwp {
                        side,
                        speed: require(t.take_f64("speed")?, "mobility", "speed")?,
                        pause: t.take_usize("pause")?.unwrap_or(0) as u32,
                    },
                    "street" => ModelSpec::Street {
                        side,
                        speed: require(t.take_f64("speed")?, "mobility", "speed")?,
                        blocks: require(t.take_usize("blocks")?, "mobility", "blocks")?,
                        pause: t.take_usize("pause")?.unwrap_or(0) as u32,
                    },
                    "rwp" => ModelSpec::Rwp {
                        side,
                        speed: require(t.take_f64("speed")?, "mobility", "speed")?,
                    },
                    "disk" => ModelSpec::Disk {
                        side,
                        speed: require(t.take_f64("speed")?, "mobility", "speed")?,
                        walk_radius: require(
                            t.take_f64("walk_radius")?,
                            "mobility",
                            "walk_radius",
                        )?,
                    },
                    "static" => ModelSpec::Static { side },
                    "mrwp-mix" => ModelSpec::MrwpMix {
                        side,
                        speeds: require(t.take_list("speeds")?, "mobility", "speeds")?.0,
                        weights: require(t.take_list("weights")?, "mobility", "weights")?.0,
                    },
                    other => {
                        return Err(perr(kind_line, format!("unknown mobility model {other:?}")));
                    }
                });
            }
            "population" => {
                n = t.take_usize("n")?;
                radius = t.take_f64("radius")?;
                if let Some((s, line)) = t.take_str("init")? {
                    init = match s.as_str() {
                        "stationary" => InitSpec::Stationary,
                        "uniform" => InitSpec::Uniform,
                        other => return Err(perr(line, format!("unknown init {other:?}"))),
                    };
                }
                if let Some((s, line)) = t.take_str("protocol")? {
                    protocol = match s.as_str() {
                        "flooding" => ProtocolSpec::Flooding,
                        "parsimonious" => ProtocolSpec::Parsimonious {
                            p: require(t.take_f64("p")?, "population", "p")?,
                        },
                        "gossip" => ProtocolSpec::Gossip {
                            k: require(t.take_usize("k")?, "population", "k")?,
                        },
                        other => return Err(perr(line, format!("unknown protocol {other:?}"))),
                    };
                }
            }
            "source" => {
                if let Some((s, line)) = t.take_str("place")? {
                    source = match s.as_str() {
                        "random" => SourceSpec::Random,
                        "center" => SourceSpec::Center,
                        "sw-corner" => SourceSpec::SwCorner,
                        "agent" => {
                            SourceSpec::Agent(require(t.take_usize("agent")?, "source", "agent")?)
                        }
                        "nearest" => {
                            let (at, at_line) = require(t.take_list("at")?, "source", "at")?;
                            if at.len() != 2 {
                                return Err(perr(at_line, "source at must be [x, y]"));
                            }
                            SourceSpec::Nearest(at[0], at[1])
                        }
                        other => return Err(perr(line, format!("unknown source place {other:?}"))),
                    };
                }
                if let Some((list, line)) = t.take_list("exits")? {
                    if list.len() % 2 != 0 {
                        return Err(perr(line, "exits must be a flat [x1, y1, x2, y2, …] list"));
                    }
                    exits = list.chunks(2).map(|c| (c[0], c[1])).collect();
                }
            }
            "cluster" => {
                clusters.push(Cluster {
                    frac: require(t.take_f64("frac")?, "cluster", "frac")?,
                    rect: require(t.take_rect("rect")?, "cluster", "rect")?,
                });
            }
            "fault" => {
                let (kind, kind_line) = require(t.take_str("kind")?, "fault", "kind")?;
                let at = require(t.take_usize("at")?, "fault", "at")? as u32;
                if fault_steps.contains(&at) {
                    return Err(perr(
                        block.line,
                        format!(
                            "duplicate [[fault]] at step {at}: one fault block per step \
                             (use kind = \"churn\" for repeated faults)"
                        ),
                    ));
                }
                fault_steps.push(at);
                let kind = match kind.as_str() {
                    "crash" => {
                        let count = match (t.take_usize("count")?, t.take_f64("frac")?) {
                            (Some(c), None) => CountSpec::Abs(c),
                            (None, Some(q)) => CountSpec::Frac(q),
                            _ => {
                                return Err(perr(
                                    kind_line,
                                    "crash needs exactly one of count / frac",
                                ));
                            }
                        };
                        FaultKind::Crash {
                            count,
                            region: t.take_rect("region")?,
                        }
                    }
                    "partition" => FaultKind::Partition {
                        duration: require(t.take_usize("duration")?, "fault", "duration")? as u32,
                        region: require(t.take_rect("region")?, "fault", "region")?,
                    },
                    "churn" => FaultKind::Churn {
                        duration: require(t.take_usize("duration")?, "fault", "duration")? as u32,
                        rate: require(t.take_usize("rate")?, "fault", "rate")?,
                    },
                    "revive" => FaultKind::Revive {
                        count: t.take_usize("count")?.unwrap_or(0),
                    },
                    other => return Err(perr(kind_line, format!("unknown fault kind {other:?}"))),
                };
                faults.push(Fault { at, kind });
            }
            _ => unreachable!("section names matched above"),
        }
        t.finish()?;
    }

    let sc = Scenario {
        name: require(name, "scenario", "name")?,
        seed,
        steps: require(steps, "scenario", "steps")?,
        trials,
        metric,
        model: require(model, "mobility", "model")?,
        n: require(n, "population", "n")?,
        radius: require(radius, "population", "radius")?,
        init,
        protocol,
        clusters,
        source,
        exits,
        faults,
    };
    sc.validate()?;
    Ok(sc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(extra: &str) -> String {
        format!(
            r#"
            [scenario]
            name = "t"
            steps = 100
            [mobility]
            model = "mrwp"
            side = 10.0
            speed = 0.5
            [population]
            n = 50
            radius = 1.0
            {extra}
            "#
        )
    }

    #[test]
    fn parses_minimal_with_defaults() {
        let sc = parse_scenario(&minimal("")).unwrap();
        assert_eq!(sc.seed, 2010);
        assert_eq!(sc.trials, 5);
        assert_eq!(sc.init, InitSpec::Stationary);
        assert_eq!(sc.protocol, ProtocolSpec::Flooding);
        assert_eq!(sc.source, SourceSpec::Random);
        assert_eq!(sc.metric, MetricSpec::Flooding);
        assert!(sc.clusters.is_empty() && sc.faults.is_empty() && sc.exits.is_empty());
    }

    #[test]
    fn parses_every_section() {
        let sc = parse_scenario(
            r#"
            # full-schema exercise
            [scenario]
            name = "full"
            seed = 7
            steps = 2000
            trials = 3
            metric = "evacuation-notice"
            [mobility]
            model = "street"
            side = 40.0
            speed = 0.8     # trailing comment
            blocks = 10
            pause = 2
            [population]
            n = 500
            radius = 2.0
            init = "uniform"
            [source]
            place = "nearest"
            at = [0.5, 0.5]
            exits = [0.0, 0.0, 1.0, 1.0]
            [[cluster]]
            frac = 0.5
            rect = [0.4, 0.4, 0.6, 0.6]
            [[fault]]
            kind = "partition"
            at = 20
            duration = 30
            region = [0.0, 0.0, 0.5, 1.0]
            [[fault]]
            kind = "churn"
            at = 60
            duration = 10
            rate = 4
            [[fault]]
            kind = "revive"
            at = 90
            "#,
        )
        .unwrap();
        assert_eq!(sc.metric, MetricSpec::EvacuationNotice);
        assert!(matches!(
            sc.model,
            ModelSpec::Street {
                blocks: 10,
                pause: 2,
                ..
            }
        ));
        assert_eq!(sc.exits, vec![(0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(sc.clusters.len(), 1);
        assert_eq!(sc.faults.len(), 3);
        assert!(matches!(sc.faults[2].kind, FaultKind::Revive { count: 0 }));
    }

    #[test]
    fn unknown_key_is_an_error() {
        let err = parse_scenario(&minimal("[source]\nplaec = \"center\"")).unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
    }

    #[test]
    fn unknown_section_is_an_error() {
        let err = parse_scenario(&minimal("[faults]\nkind = \"crash\"")).unwrap_err();
        assert!(err.to_string().contains("unknown section"), "{err}");
    }

    #[test]
    fn missing_required_key_is_an_error() {
        let err = parse_scenario(
            r#"
            [scenario]
            name = "t"
            steps = 10
            [mobility]
            model = "mrwp"
            side = 10.0
            speed = 0.5
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("\"n\""), "{err}");
    }

    #[test]
    fn crash_needs_exactly_one_count_form() {
        let both = minimal("[[fault]]\nkind = \"crash\"\nat = 1\ncount = 3\nfrac = 0.5");
        assert!(parse_scenario(&both).is_err());
        let neither = minimal("[[fault]]\nkind = \"crash\"\nat = 1");
        assert!(parse_scenario(&neither).is_err());
    }

    #[test]
    fn semantic_validation_runs() {
        let bad_rect = minimal("[[cluster]]\nfrac = 0.5\nrect = [0.8, 0.0, 0.2, 1.0]");
        let err = parse_scenario(&bad_rect).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
    }

    #[test]
    fn mixture_weights_must_be_positive() {
        let mix = |weights: &str| {
            format!(
                "[scenario]\nname = \"t\"\nsteps = 100\n\
                 [mobility]\nmodel = \"mrwp-mix\"\nside = 10.0\n\
                 speeds = [0.2, 0.8]\nweights = {weights}\n\
                 [population]\nn = 50\nradius = 1.0\n"
            )
        };
        assert!(parse_scenario(&mix("[1.0, 3.0]")).is_ok());
        for weights in ["[1.0, 0.0]", "[-1.0, 2.0]"] {
            let err = parse_scenario(&mix(weights)).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, ScenarioError::Invalid(_)), "{msg}");
            assert!(msg.contains("weights") && !msg.contains("speed"), "{msg}");
        }
        let err = parse_scenario(&mix("[1.0]")).unwrap_err();
        assert!(err.to_string().contains("matching"), "{err}");
    }

    #[test]
    fn duplicate_singleton_section_is_an_error() {
        let err = parse_scenario(&minimal("[population]\nn = 2\nradius = 1.0")).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    /// Every parse error names the offending 1-based line.
    fn parse_line(err: &ScenarioError) -> usize {
        match err {
            ScenarioError::Parse { line, .. } => *line,
            other => panic!("expected a line-numbered parse error, got {other}"),
        }
    }

    #[test]
    fn truncated_file_is_a_line_numbered_error_not_a_panic() {
        // cut mid-assignment: a key with no value
        let err = parse_scenario("[scenario]\nname = \"t\"\nsteps =").unwrap_err();
        assert_eq!(parse_line(&err), 3, "{err}");
        // cut inside a string literal
        let err = parse_scenario("[scenario]\nname = \"unterm").unwrap_err();
        assert_eq!(parse_line(&err), 2, "{err}");
        assert!(err.to_string().contains("string"), "{err}");
        // cut inside an array literal
        let err = parse_scenario(&minimal("[source]\nexits = [0.1, 0.2")).unwrap_err();
        assert!(err.to_string().contains("array"), "{err}");
        parse_line(&err);
    }

    #[test]
    fn non_finite_numerics_are_rejected_with_a_line() {
        for bad in ["nan", "inf", "-inf"] {
            let err = parse_scenario(&minimal(&format!("[source]\nplace = {bad}"))).unwrap_err();
            assert!(err.to_string().contains("finite"), "{bad}: {err}");
            assert_eq!(parse_line(&err), 13, "{bad}: {err}");
        }
        let err = parse_scenario(&minimal("[source]\nexits = [0.0, inf]")).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        parse_line(&err);
    }

    #[test]
    fn duplicate_fault_steps_are_rejected_with_a_line() {
        let two_at_seven = minimal(concat!(
            "[[fault]]\nkind = \"crash\"\nat = 7\ncount = 3\n",
            "[[fault]]\nkind = \"revive\"\nat = 7"
        ));
        let err = parse_scenario(&two_at_seven).unwrap_err();
        assert!(
            err.to_string().contains("duplicate [[fault]] at step 7"),
            "{err}"
        );
        assert_eq!(parse_line(&err), 16, "the second block's line: {err}");
        // distinct steps stay fine
        let distinct = minimal(concat!(
            "[[fault]]\nkind = \"crash\"\nat = 7\ncount = 3\n",
            "[[fault]]\nkind = \"revive\"\nat = 8"
        ));
        assert_eq!(parse_scenario(&distinct).unwrap().faults.len(), 2);
    }

    #[test]
    fn oversized_agent_count_is_rejected_with_the_u32_limit() {
        let text = "[scenario]\nname = \"t\"\nsteps = 10\n[mobility]\nmodel = \"mrwp\"\n\
                    side = 10.0\nspeed = 0.5\n[population]\nn = 5000000000\nradius = 1.0";
        let err = parse_scenario(text).unwrap_err();
        assert!(err.to_string().contains("4294967295"), "{err}");
        assert_eq!(parse_line(&err), 9, "{err}");
    }
}
