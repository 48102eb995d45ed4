//! Physical table storage: row layout and column layout with a delta
//! buffer, plus equality secondary indexes (hash-based: every probe the
//! executor issues is a point lookup, so ordered B-trees bought nothing
//! but comparison cost).

use snb_core::{FastMap, Result, SnbError, Value};
use std::collections::BTreeMap;

use crate::catalog::TableDef;
use crate::database::Layout;

/// Rows merged from the column-store delta buffer per merge cycle.
pub(crate) const COL_MERGE_THRESHOLD: usize = 256;

/// One physical table.
pub struct Table {
    pub def: TableDef,
    layout: Layout,
    /// Row layout storage.
    rows: Vec<Vec<Value>>,
    /// Column layout storage (merged portion), one `Vec` per column.
    cols: Vec<Vec<Value>>,
    /// Column layout write buffer (row format until merged).
    delta: Vec<Vec<Value>>,
    /// Per-segment min/max statistics, recomputed on merge (part of the
    /// genuine cost of columnar point inserts).
    col_stats: Vec<(Value, Value)>,
    n_rows: usize,
    /// Equality indexes: column position → value → row ids.
    indexes: BTreeMap<usize, FastMap<Value, Vec<u32>>>,
}

impl Table {
    /// Empty table with the given layout; builds the declared indexes.
    pub fn new(def: TableDef, layout: Layout) -> Self {
        let mut indexes = BTreeMap::new();
        for &ix in &def.indexes {
            indexes.insert(ix, FastMap::default());
        }
        let n_cols = def.arity();
        Table {
            def,
            layout,
            rows: Vec::new(),
            cols: vec![Vec::new(); if layout == Layout::Column { n_cols } else { 0 }],
            delta: Vec::new(),
            col_stats: Vec::new(),
            n_rows: 0,
            indexes,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Insert a row; enforces arity and primary-key uniqueness.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<u32> {
        if row.len() != self.def.arity() {
            return Err(SnbError::Exec(format!(
                "table `{}` expects {} values, got {}",
                self.def.name,
                self.def.arity(),
                row.len()
            )));
        }
        if let Some(pk) = self.def.pk {
            if self
                .indexes
                .get(&pk)
                .and_then(|idx| idx.get(&row[pk]))
                .is_some_and(|rows| !rows.is_empty())
            {
                return Err(SnbError::Conflict(format!(
                    "duplicate key {} in `{}`",
                    row[pk], self.def.name
                )));
            }
        }
        let row_id = self.n_rows as u32;
        for (&col, idx) in self.indexes.iter_mut() {
            idx.entry(row[col].clone()).or_default().push(row_id);
        }
        match self.layout {
            Layout::Row => self.rows.push(row),
            Layout::Column => {
                self.delta.push(row);
                if self.delta.len() >= COL_MERGE_THRESHOLD {
                    self.merge_delta();
                }
            }
        }
        self.n_rows += 1;
        Ok(row_id)
    }

    /// Insert many rows in order, with storage pre-reserved for the
    /// batch; stops at the first failing row, leaving the prefix
    /// inserted. Returns how many rows went in.
    pub fn insert_many(&mut self, rows: Vec<Vec<Value>>) -> Result<usize> {
        match self.layout {
            Layout::Row => self.rows.reserve(rows.len()),
            Layout::Column => self.delta.reserve(rows.len().min(COL_MERGE_THRESHOLD)),
        }
        let mut applied = 0usize;
        for row in rows {
            self.insert(row)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Merge the delta buffer into the column vectors and refresh the
    /// per-column statistics — the columnar write amplification.
    fn merge_delta(&mut self) {
        for row in self.delta.drain(..) {
            for (c, v) in row.into_iter().enumerate() {
                self.cols[c].push(v);
            }
        }
        self.col_stats.clear();
        for col in &self.cols {
            let mut min = Value::Null;
            let mut max = Value::Null;
            for v in col {
                if min.is_null() || *v < min {
                    min = v.clone();
                }
                if max.is_null() || *v > max {
                    max = v.clone();
                }
            }
            self.col_stats.push((min, max));
        }
    }

    /// Read one cell.
    pub fn cell(&self, row_id: u32, col: usize) -> &Value {
        match self.layout {
            Layout::Row => &self.rows[row_id as usize][col],
            Layout::Column => {
                let merged = self.cols.first().map_or(0, |c| c.len());
                let r = row_id as usize;
                if r < merged {
                    &self.cols[col][r]
                } else {
                    &self.delta[r - merged][col]
                }
            }
        }
    }

    /// Copy one row out.
    pub fn row(&self, row_id: u32) -> Vec<Value> {
        (0..self.def.arity()).map(|c| self.cell(row_id, c).clone()).collect()
    }

    /// Overwrite one cell, maintaining indexes.
    pub fn update_cell(&mut self, row_id: u32, col: usize, value: Value) -> Result<()> {
        let old = self.cell(row_id, col).clone();
        if let Some(idx) = self.indexes.get_mut(&col) {
            if let Some(rows) = idx.get_mut(&old) {
                rows.retain(|&r| r != row_id);
            }
            idx.entry(value.clone()).or_default().push(row_id);
        }
        match self.layout {
            Layout::Row => self.rows[row_id as usize][col] = value,
            Layout::Column => {
                let merged = self.cols.first().map_or(0, |c| c.len());
                let r = row_id as usize;
                if r < merged {
                    self.cols[col][r] = value;
                } else {
                    self.delta[r - merged][col] = value;
                }
            }
        }
        Ok(())
    }

    /// Row ids with `cell(col) == value`, via index when available, scan
    /// otherwise.
    pub fn find(&self, col: usize, value: &Value, out: &mut Vec<u32>) {
        if let Some(idx) = self.indexes.get(&col) {
            if let Some(rows) = idx.get(value) {
                out.extend_from_slice(rows);
            }
            return;
        }
        for r in 0..self.n_rows as u32 {
            if self.cell(r, col) == value {
                out.push(r);
            }
        }
    }

    /// True when the column has an index.
    pub fn has_index(&self, col: usize) -> bool {
        self.indexes.contains_key(&col)
    }

    /// Distinct keys in the column's index (`None` when unindexed). A
    /// key whose rows were all updated away still counts, so this is
    /// an upper bound — plenty for a cost estimate.
    pub fn distinct_keys(&self, col: usize) -> Option<usize> {
        self.indexes.get(&col).map(|idx| idx.len())
    }

    /// All row ids (scan order).
    pub fn all_rows(&self) -> impl Iterator<Item = u32> {
        0..self.n_rows as u32
    }

    /// Approximate resident bytes.
    pub fn storage_bytes(&self) -> usize {
        let value_size = std::mem::size_of::<Value>();
        let mut bytes = 0usize;
        for row in self.rows.iter().chain(self.delta.iter()) {
            bytes += row.capacity() * value_size + row.iter().map(Value::heap_bytes).sum::<usize>();
        }
        for col in &self.cols {
            bytes += col.capacity() * value_size + col.iter().map(Value::heap_bytes).sum::<usize>();
        }
        for idx in self.indexes.values() {
            for (k, rows) in idx {
                bytes += value_size + k.heap_bytes() + rows.capacity() * 4 + 16;
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColType;

    fn def() -> TableDef {
        TableDef {
            name: "t".into(),
            cols: vec![("id".into(), ColType::Int), ("name".into(), ColType::Text)],
            pk: Some(0),
            indexes: vec![0],
        }
    }

    fn edge_def() -> TableDef {
        TableDef {
            name: "e".into(),
            cols: vec![("src".into(), ColType::Int), ("dst".into(), ColType::Int)],
            pk: None,
            indexes: vec![0, 1],
        }
    }

    #[test]
    fn insert_and_read_both_layouts() {
        for layout in [Layout::Row, Layout::Column] {
            let mut t = Table::new(def(), layout);
            for i in 0..600i64 {
                t.insert(vec![Value::Int(i), Value::string(format!("n{i}"))]).unwrap();
            }
            assert_eq!(t.len(), 600);
            assert_eq!(t.cell(0, 1), &Value::str("n0"));
            assert_eq!(t.cell(599, 0), &Value::Int(599));
            assert_eq!(t.row(300), vec![Value::Int(300), Value::str("n300")]);
        }
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut t = Table::new(def(), Layout::Row);
        t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        assert!(matches!(
            t.insert(vec![Value::Int(1), Value::str("b")]),
            Err(SnbError::Conflict(_))
        ));
        assert!(matches!(t.insert(vec![Value::Int(2)]), Err(SnbError::Exec(_))));
    }

    #[test]
    fn find_uses_index_and_handles_duplicates() {
        let mut t = Table::new(edge_def(), Layout::Row);
        t.insert(vec![Value::Int(1), Value::Int(2)]).unwrap();
        t.insert(vec![Value::Int(1), Value::Int(3)]).unwrap();
        t.insert(vec![Value::Int(2), Value::Int(3)]).unwrap();
        let mut out = Vec::new();
        t.find(0, &Value::Int(1), &mut out);
        assert_eq!(out, vec![0, 1]);
        out.clear();
        t.find(1, &Value::Int(3), &mut out);
        assert_eq!(out, vec![1, 2]);
        assert!(t.has_index(0) && t.has_index(1));
    }

    #[test]
    fn update_cell_maintains_index() {
        let mut t = Table::new(def(), Layout::Column);
        t.insert(vec![Value::Int(1), Value::str("a")]).unwrap();
        t.update_cell(0, 0, Value::Int(9)).unwrap();
        let mut out = Vec::new();
        t.find(0, &Value::Int(1), &mut out);
        assert!(out.is_empty());
        t.find(0, &Value::Int(9), &mut out);
        assert_eq!(out, vec![0]);
        assert_eq!(t.cell(0, 0), &Value::Int(9));
    }

    #[test]
    fn column_layout_reads_straddle_merge_boundary() {
        let mut t = Table::new(def(), Layout::Column);
        let n = COL_MERGE_THRESHOLD as i64 + 10;
        for i in 0..n {
            t.insert(vec![Value::Int(i), Value::string(format!("n{i}"))]).unwrap();
        }
        // Rows 0..256 are merged, the rest sit in the delta.
        assert_eq!(t.cell(0, 0), &Value::Int(0));
        assert_eq!(t.cell((n - 1) as u32, 0), &Value::Int(n - 1));
        let mut out = Vec::new();
        t.find(0, &Value::Int(n - 1), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn storage_bytes_nonzero() {
        let mut t = Table::new(def(), Layout::Row);
        t.insert(vec![Value::Int(1), Value::str("abc")]).unwrap();
        assert!(t.storage_bytes() > 0);
    }
}
