//! Component configuration files: the flat `key: value` format.
//!
//! stream2gym configures each component with a small YAML file (Fig. 3 shows
//! the data-source and word-count examples). We support the flat subset
//! those files actually use — `key: value` pairs, comments, `---` document
//! markers — plus typed getters with unit suffixes (`2000ms`, `32m`, `1g`).

use std::collections::BTreeMap;
use std::fmt;

use s2g_sim::SimDuration;

/// A parsed component configuration.
///
/// # Examples
///
/// ```
/// use s2g_core::ComponentConfig;
///
/// let cfg = ComponentConfig::parse(
///     "---\n# the data source from Fig. 3a\nfilePath: test-data.csv\n\
///      topicName: raw-data\ntotalMessages: 1000\nrequestTimeout: 2000ms\n\
///      bufferMemory: 32m\n---\n",
/// )?;
/// assert_eq!(cfg.get("topicName"), Some("raw-data"));
/// assert_eq!(cfg.get_u64("totalMessages")?, Some(1000));
/// assert_eq!(cfg.get_duration("requestTimeout")?.unwrap().as_millis(), 2000);
/// assert_eq!(cfg.get_bytes("bufferMemory")?, Some(32 * 1024 * 1024));
/// # Ok::<(), s2g_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentConfig {
    entries: BTreeMap<String, String>,
}

/// A configuration parsing or typing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A non-empty line had no `key: value` shape.
    BadLine(usize, String),
    /// A value could not be parsed as the requested type.
    BadValue {
        /// The key.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadLine(n, l) => write!(f, "line {n}: not a `key: value` pair: {l:?}"),
            ConfigError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "key `{key}`: expected {expected}, got {value:?}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ComponentConfig {
    /// An empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses the flat `key: value` format.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadLine`] for malformed lines.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut entries = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("---") {
                continue;
            }
            // Strip trailing comments.
            let line = line.split(" #").next().unwrap_or(line).trim();
            let Some((key, value)) = line.split_once(':') else {
                return Err(ConfigError::BadLine(i + 1, raw.to_string()));
            };
            entries.insert(key.trim().to_string(), value.trim().to_string());
        }
        Ok(ComponentConfig { entries })
    }

    /// Sets a key (builder style, for programmatic configs).
    pub fn set(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.entries.insert(key.to_string(), value.to_string());
        self
    }

    /// The raw value for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no keys are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value as a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadValue`] when present but unparsable.
    pub fn get_u64(&self, key: &str) -> Result<Option<u64>, ConfigError> {
        self.get(key)
            .map(|v| {
                v.parse::<u64>().map_err(|_| ConfigError::BadValue {
                    key: key.to_string(),
                    value: v.to_string(),
                    expected: "an unsigned integer",
                })
            })
            .transpose()
    }

    /// The value as an `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadValue`] when present but unparsable.
    pub(crate) fn get_f64(&self, key: &str) -> Result<Option<f64>, ConfigError> {
        self.get(key)
            .map(|v| {
                v.parse::<f64>().map_err(|_| ConfigError::BadValue {
                    key: key.to_string(),
                    value: v.to_string(),
                    expected: "a number",
                })
            })
            .transpose()
    }

    /// The value as a duration: plain numbers are milliseconds; `ms`, `s`,
    /// `us`, `m` suffixes are honored (`2000ms`, `2s`, `5m`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadValue`] when present but unparsable.
    pub fn get_duration(&self, key: &str) -> Result<Option<SimDuration>, ConfigError> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        let bad = || ConfigError::BadValue {
            key: key.to_string(),
            value: v.to_string(),
            expected: "a duration like 2000ms, 2s, 5m",
        };
        let parse_num = |s: &str| s.trim().parse::<f64>().map_err(|_| bad());
        let d = if let Some(num) = v.strip_suffix("ms") {
            SimDuration::from_secs_f64(parse_num(num)? / 1e3)
        } else if let Some(num) = v.strip_suffix("us") {
            SimDuration::from_secs_f64(parse_num(num)? / 1e6)
        } else if let Some(num) = v.strip_suffix('s') {
            SimDuration::from_secs_f64(parse_num(num)?)
        } else if let Some(num) = v.strip_suffix('m') {
            SimDuration::from_secs_f64(parse_num(num)? * 60.0)
        } else {
            SimDuration::from_secs_f64(parse_num(v)? / 1e3)
        };
        Ok(Some(d))
    }

    /// The value as a byte size: `32m`, `1g`, `512k`, or plain bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadValue`] when present but unparsable.
    pub fn get_bytes(&self, key: &str) -> Result<Option<usize>, ConfigError> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        let bad = || ConfigError::BadValue {
            key: key.to_string(),
            value: v.to_string(),
            expected: "a size like 32m, 1g, 512k",
        };
        let lower = v.to_lowercase();
        let (num, mult) = if let Some(n) = lower.strip_suffix('g') {
            (n, 1usize << 30)
        } else if let Some(n) = lower.strip_suffix('m') {
            (n, 1 << 20)
        } else if let Some(n) = lower.strip_suffix('k') {
            (n, 1 << 10)
        } else {
            (lower.as_str(), 1)
        };
        let n: f64 = num.trim().parse().map_err(|_| bad())?;
        Ok(Some((n * mult as f64) as usize))
    }

    /// Iterates over all `(key, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig3_configs() {
        // Fig. 3a (data source) and Fig. 3b (word count SPE job).
        let src = ComponentConfig::parse(
            "---\nfilePath : test-data.csv\ntopicName : raw-data\n\
             totalMessages : 1000\nrequestTimeout : 2000ms\nbufferMemory : 32m\n---\n",
        )
        .unwrap();
        assert_eq!(src.get("filePath"), Some("test-data.csv"));
        assert_eq!(src.get_u64("totalMessages").unwrap(), Some(1000));
        assert_eq!(
            src.get_duration("requestTimeout")
                .unwrap()
                .unwrap()
                .as_millis(),
            2000
        );
        assert_eq!(src.get_bytes("bufferMemory").unwrap(), Some(32 << 20));

        let spe = ComponentConfig::parse(
            "---\napp : word-count.py\nexecutorMemory : 1g\neventLog : true\n---\n",
        )
        .unwrap();
        assert_eq!(spe.get("app"), Some("word-count.py"));
        assert_eq!(spe.get_bytes("executorMemory").unwrap(), Some(1 << 30));
        assert_eq!(spe.get("eventLog"), Some("true"));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let cfg = ComponentConfig::parse("# header\n\nkey: value # trailing\n").unwrap();
        assert_eq!(cfg.get("key"), Some("value"));
        assert_eq!(cfg.len(), 1);
    }

    #[test]
    fn bad_line_reports_position() {
        let err = ComponentConfig::parse("good: 1\nnot a pair\n").unwrap_err();
        assert_eq!(err, ConfigError::BadLine(2, "not a pair".into()));
    }

    #[test]
    fn duration_units() {
        let cfg = ComponentConfig::parse("a: 500\nb: 2s\nc: 250ms\nd: 5m\ne: 100us\n").unwrap();
        assert_eq!(cfg.get_duration("a").unwrap().unwrap().as_millis(), 500);
        assert_eq!(cfg.get_duration("b").unwrap().unwrap().as_secs(), 2);
        assert_eq!(cfg.get_duration("c").unwrap().unwrap().as_millis(), 250);
        assert_eq!(cfg.get_duration("d").unwrap().unwrap().as_secs(), 300);
        assert_eq!(cfg.get_duration("e").unwrap().unwrap().as_micros(), 100);
        assert_eq!(cfg.get_duration("missing").unwrap(), None);
    }

    #[test]
    fn byte_sizes() {
        let cfg = ComponentConfig::parse("a: 16m\nb: 1g\nc: 512k\nd: 1000\n").unwrap();
        assert_eq!(cfg.get_bytes("a").unwrap(), Some(16 << 20));
        assert_eq!(cfg.get_bytes("b").unwrap(), Some(1 << 30));
        assert_eq!(cfg.get_bytes("c").unwrap(), Some(512 << 10));
        assert_eq!(cfg.get_bytes("d").unwrap(), Some(1000));
    }

    #[test]
    fn typed_errors_carry_context() {
        let cfg = ComponentConfig::parse("n: xyz\n").unwrap();
        match cfg.get_u64("n") {
            Err(ConfigError::BadValue { key, .. }) => assert_eq!(key, "n"),
            other => panic!("expected BadValue, got {other:?}"),
        }
    }

    #[test]
    fn builder_set() {
        let cfg = ComponentConfig::new().set("rate", 30).set("topic", "ta");
        assert_eq!(cfg.get_u64("rate").unwrap(), Some(30));
        assert_eq!(cfg.get("topic"), Some("ta"));
    }
}
