//! The database object: a catalog of independently locked tables.

use parking_lot::RwLock;
use snb_core::{Result, SnbError, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::catalog::{snb_catalog, TableDef};
use crate::sql::planner::SqlPlanEntry;
use crate::table::Table;

/// Cap on cached SQL plans; the cache is cleared wholesale when full.
const PLAN_CACHE_CAP: usize = 256;

/// Physical layout of every table in a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Tuples stored per row (Postgres-like).
    Row,
    /// Values stored per column with a delta buffer (Virtuoso-like).
    Column,
}

/// A relational database instance. Tables are locked individually, so
/// readers of one table never contend with writers of another —
/// matching how the benchmark's concurrent workload behaves on a real
/// RDBMS.
pub struct Database {
    layout: Layout,
    tables: HashMap<String, RwLock<Table>>,
    /// Whether the SQL dialect accepts the `TRANSITIVE` operator
    /// (Virtuoso's graph-aware extension) — column-store only.
    pub(crate) transitive_enabled: bool,
    /// Whether `sql()` routes through the shared optimizer pipeline.
    planner: AtomicBool,
    /// Query-text → optimized plan entry.
    plans: RwLock<HashMap<String, Arc<SqlPlanEntry>>>,
}

impl Database {
    /// A database with the SNB schema in the given layout. The
    /// `TRANSITIVE` operator is enabled for column stores only,
    /// mirroring Virtuoso vs Postgres.
    pub fn new_snb(layout: Layout) -> Self {
        let mut tables = HashMap::new();
        for def in snb_catalog() {
            tables.insert(def.name.clone(), RwLock::new(Table::new(def, layout)));
        }
        Database {
            layout,
            tables,
            transitive_enabled: layout == Layout::Column,
            planner: AtomicBool::new(true),
            plans: RwLock::new(HashMap::new()),
        }
    }

    /// Enable or disable the shared optimizer pipeline for `sql()`.
    /// Disabling also drops cached plans so re-enabling replans fresh.
    pub fn set_planner_enabled(&self, on: bool) {
        self.planner.store(on, Ordering::Relaxed);
        if !on {
            self.plans.write().clear();
        }
    }

    /// Whether `sql()` routes through the optimizer.
    pub fn planner_enabled(&self) -> bool {
        self.planner.load(Ordering::Relaxed)
    }

    /// Cached plan entry for a query text, planning on miss.
    pub(crate) fn plan_for(&self, query: &str) -> Result<Arc<SqlPlanEntry>> {
        if let Some(hit) = self.plans.read().get(query) {
            return Ok(hit.clone());
        }
        let stmt = crate::sql::parser::parse(query)?;
        let entry = crate::sql::planner::build_entry(self, stmt);
        let mut cache = self.plans.write();
        if cache.len() >= PLAN_CACHE_CAP {
            cache.clear();
        }
        cache.insert(query.to_string(), entry.clone());
        Ok(entry)
    }

    /// The layout this database uses.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Engine name for experiment output.
    pub fn name(&self) -> &'static str {
        match self.layout {
            Layout::Row => "relational-row",
            Layout::Column => "relational-column",
        }
    }

    /// Access a table for reading/writing.
    pub(crate) fn table(&self, name: &str) -> Result<&RwLock<Table>> {
        self.tables
            .get(name)
            .ok_or_else(|| SnbError::Plan(format!("unknown table `{name}`")))
    }

    /// Table definition by name.
    pub fn table_def(&self, name: &str) -> Result<TableDef> {
        Ok(self.table(name)?.read().def.clone())
    }

    /// Direct (non-SQL) bulk insert used by loaders.
    pub fn insert_row(&self, table: &str, row: Vec<Value>) -> Result<()> {
        self.table(table)?.write().insert(row)?;
        Ok(())
    }

    /// Direct bulk insert of many rows into one table, taking the
    /// table's write lock once for the whole batch (the vendor bulk
    /// path, vs one lock round trip per `INSERT` statement). Stops at
    /// the first failing row, leaving the prefix inserted.
    pub fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        if rows.is_empty() {
            return Ok(0);
        }
        self.table(table)?.write().insert_many(rows)
    }

    /// Row count of one table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.table(table)?.read().len())
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.read().len()).sum()
    }

    /// Approximate resident bytes of the whole database.
    pub fn storage_bytes(&self) -> usize {
        self.tables.values().map(|t| t.read().storage_bytes()).sum()
    }

    /// Names of all tables (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<_> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snb_database_has_tables() {
        let db = Database::new_snb(Layout::Row);
        assert!(db.table("person").is_ok());
        assert!(db.table("person_knows_person").is_ok());
        assert!(db.table("nope").is_err());
        assert_eq!(db.name(), "relational-row");
        assert!(!Database::new_snb(Layout::Row).transitive_enabled);
        assert!(Database::new_snb(Layout::Column).transitive_enabled);
    }

    #[test]
    fn insert_and_count() {
        let db = Database::new_snb(Layout::Column);
        let def = db.table_def("tag").unwrap();
        assert_eq!(def.cols[0].0, "id");
        db.insert_row("tag", vec![Value::Int(1), Value::str("rock"), Value::str("u")]).unwrap();
        assert_eq!(db.row_count("tag").unwrap(), 1);
        assert_eq!(db.total_rows(), 1);
        assert!(db.storage_bytes() > 0);
    }

    #[test]
    fn insert_rows_bulk_path_both_layouts() {
        for layout in [Layout::Row, Layout::Column] {
            let db = Database::new_snb(layout);
            let rows: Vec<Vec<Value>> = (0..300)
                .map(|i| vec![Value::Int(i), Value::str("t"), Value::str("u")])
                .collect();
            assert_eq!(db.insert_rows("tag", rows).unwrap(), 300);
            assert_eq!(db.row_count("tag").unwrap(), 300);
            // A duplicate key mid-batch leaves the prefix inserted.
            let dup = vec![
                vec![Value::Int(1000), Value::str("t"), Value::str("u")],
                vec![Value::Int(5), Value::str("t"), Value::str("u")],
                vec![Value::Int(1001), Value::str("t"), Value::str("u")],
            ];
            assert!(matches!(db.insert_rows("tag", dup), Err(SnbError::Conflict(_))));
            assert_eq!(db.row_count("tag").unwrap(), 301);
            assert!(db.insert_rows("nope", vec![]).is_ok(), "empty batch never touches tables");
        }
    }
}
