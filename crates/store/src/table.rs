//! A minimal relational table store — the MySQL stand-in.
//!
//! Supports typed-ish tables of string cells with insert, filtered select,
//! count, and group-by-count. Enough surface for the paper's pipelines that
//! persist query results into an external database (e.g. the maritime
//! monitoring application).

use std::collections::BTreeMap;
use std::fmt;

/// A table-store error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The table does not exist.
    NoSuchTable(String),
    /// The table already exists.
    TableExists(String),
    /// A referenced column does not exist.
    NoSuchColumn(String),
    /// A row had the wrong number of cells.
    ArityMismatch {
        /// Columns expected.
        expected: usize,
        /// Cells provided.
        got: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::NoSuchTable(t) => write!(f, "no such table `{t}`"),
            TableError::TableExists(t) => write!(f, "table `{t}` already exists"),
            TableError::NoSuchColumn(c) => write!(f, "no such column `{c}`"),
            TableError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} cells, table has {expected} columns")
            }
        }
    }
}

impl std::error::Error for TableError {}

#[derive(Debug, Clone, Default)]
struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// A named collection of tables.
///
/// # Examples
///
/// ```
/// use s2g_store::TableStore;
///
/// let mut db = TableStore::new();
/// db.create_table("ships", &["port", "name"])?;
/// db.insert("ships", vec!["halifax".into(), "neptune".into()])?;
/// db.insert("ships", vec!["halifax".into(), "aurora".into()])?;
/// db.insert("ships", vec!["boston".into(), "wave".into()])?;
/// assert_eq!(db.count("ships", Some(("port", "halifax")))?, 2);
/// # Ok::<(), s2g_store::TableError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TableStore {
    tables: BTreeMap<String, Table>,
    /// Cell bytes of every row of every table, kept as rows arrive.
    resident: usize,
}

impl TableStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table with the given columns.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::TableExists`] if the name is taken.
    pub fn create_table(&mut self, name: &str, columns: &[&str]) -> Result<(), TableError> {
        if self.tables.contains_key(name) {
            return Err(TableError::TableExists(name.to_string()));
        }
        self.tables.insert(
            name.to_string(),
            Table {
                columns: columns.iter().map(|c| c.to_string()).collect(),
                rows: Vec::new(),
            },
        );
        Ok(())
    }

    /// Inserts a row.
    ///
    /// # Errors
    ///
    /// Fails on unknown table or wrong arity.
    pub fn insert(&mut self, table: &str, row: Vec<String>) -> Result<(), TableError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| TableError::NoSuchTable(table.to_string()))?;
        if row.len() != t.columns.len() {
            return Err(TableError::ArityMismatch {
                expected: t.columns.len(),
                got: row.len(),
            });
        }
        self.resident += row.iter().map(String::len).sum::<usize>();
        t.rows.push(row);
        Ok(())
    }

    fn col_index(t: &Table, col: &str) -> Result<usize, TableError> {
        t.columns
            .iter()
            .position(|c| c == col)
            .ok_or_else(|| TableError::NoSuchColumn(col.to_string()))
    }

    /// Selects rows, optionally filtered by `column == value`.
    ///
    /// # Errors
    ///
    /// Fails on unknown table or column.
    pub fn select(
        &self,
        table: &str,
        filter: Option<(&str, &str)>,
    ) -> Result<Vec<Vec<String>>, TableError> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| TableError::NoSuchTable(table.to_string()))?;
        match filter {
            None => Ok(t.rows.clone()),
            Some((col, val)) => {
                let idx = Self::col_index(t, col)?;
                Ok(t.rows.iter().filter(|r| r[idx] == val).cloned().collect())
            }
        }
    }

    /// Counts rows, optionally filtered by `column == value`.
    ///
    /// # Errors
    ///
    /// Fails on unknown table or column.
    pub fn count(&self, table: &str, filter: Option<(&str, &str)>) -> Result<usize, TableError> {
        Ok(self.select(table, filter)?.len())
    }

    /// Group-by-count over one column, sorted by group.
    ///
    /// # Errors
    ///
    /// Fails on unknown table or column.
    pub fn group_count(&self, table: &str, col: &str) -> Result<Vec<(String, usize)>, TableError> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| TableError::NoSuchTable(table.to_string()))?;
        let idx = Self::col_index(t, col)?;
        let mut groups: BTreeMap<String, usize> = BTreeMap::new();
        for r in &t.rows {
            *groups.entry(r[idx].clone()).or_insert(0) += 1;
        }
        Ok(groups.into_iter().collect())
    }

    /// Dumps every table as `(name, columns, rows)` — the table half of a
    /// state-snapshot transfer for group resync.
    pub(crate) fn dump(&self) -> Vec<(String, Vec<String>, Vec<Vec<String>>)> {
        self.tables
            .iter()
            .map(|(name, t)| (name.clone(), t.columns.clone(), t.rows.clone()))
            .collect()
    }

    /// Whether a table of this name exists.
    pub(crate) fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows.len()).sum()
    }

    /// Approximate resident bytes (for the memory model).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableStore {
        let mut db = TableStore::new();
        db.create_table("t", &["a", "b"]).unwrap();
        db.insert("t", vec!["1".into(), "x".into()]).unwrap();
        db.insert("t", vec!["2".into(), "y".into()]).unwrap();
        db.insert("t", vec!["1".into(), "z".into()]).unwrap();
        db
    }

    #[test]
    fn insert_and_select_all() {
        let db = sample();
        assert_eq!(db.select("t", None).unwrap().len(), 3);
        assert_eq!(db.total_rows(), 3);
    }

    #[test]
    fn filtered_select() {
        let db = sample();
        let rows = db.select("t", Some(("a", "1"))).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[0] == "1"));
    }

    #[test]
    fn group_count_sorted() {
        let db = sample();
        assert_eq!(
            db.group_count("t", "a").unwrap(),
            vec![("1".into(), 2), ("2".into(), 1)]
        );
    }

    #[test]
    fn errors_are_specific() {
        let mut db = sample();
        assert_eq!(
            db.select("zz", None),
            Err(TableError::NoSuchTable("zz".into()))
        );
        assert_eq!(
            db.select("t", Some(("zz", "1"))),
            Err(TableError::NoSuchColumn("zz".into()))
        );
        assert_eq!(
            db.insert("t", vec!["only-one".into()]),
            Err(TableError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            db.create_table("t", &["a"]),
            Err(TableError::TableExists("t".into()))
        );
    }
}
