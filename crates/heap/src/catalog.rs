//! The class catalog: names, OIDs, storage-manager assignment, and
//! arbitrary per-class properties (the query layer stores column schemas
//! here; the large-object layer stores object metadata).
//!
//! Changes are logged to the redo WAL; the JSON file in the database
//! directory is a checkpoint snapshot. The catalog is *metadata*, not
//! benchmarked data — see DESIGN.md's dependency policy for why JSON.

use crate::json::{self, Value};
use crate::{HeapError, Result};
use parking_lot::{ranks, Mutex};
use pglo_smgr::SmgrId;
use pglo_wal::{Lsn, Wal, WalRecord};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What kind of physical structure a class is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    /// A heap of tuples.
    Heap,
    /// A B-tree index.
    BTree,
}

/// Metadata for one class.
#[derive(Debug, Clone)]
pub struct ClassMeta {
    /// The oid.
    pub oid: u64,
    /// The name.
    pub name: String,
    /// The kind.
    pub kind: ClassKind,
    /// Which storage manager the class lives on (slot in the switch).
    pub smgr: u16,
    /// Open property bag: column schemas, index key descriptors, LO
    /// metadata, owner, etc.
    pub props: HashMap<String, String>,
}

impl ClassMeta {
    /// The storage-manager id as a typed value.
    pub fn smgr_id(&self) -> SmgrId {
        SmgrId(self.smgr)
    }
}

#[derive(Debug, Default)]
struct CatalogData {
    next_oid: u64,
    classes: HashMap<String, ClassMeta>,
    /// Log position the loaded snapshot is current through: replay
    /// skips catalog records below it.
    snapshot_lsn: Lsn,
    /// Changes applied since open (mutations and replayed records); a
    /// checkpoint writes a snapshot only when this moved.
    changes: u64,
}

/// One catalog change: the post-image of the class it touched, or its
/// removal. Every change also carries the OID counter.
enum Change {
    Oid,
    Put(ClassMeta),
    Drop(String),
}

// JSON mapping, kept byte-compatible with the serde_json derive layout the
// seed used (enum variants as strings, `props` defaulting to empty), plus
// the snapshot's `lsn`.
impl CatalogData {
    fn to_json(&self, lsn: Lsn) -> Value {
        let mut names: Vec<&String> = self.classes.keys().collect();
        names.sort();
        Value::Obj(vec![
            ("lsn".into(), Value::Num(lsn as f64)),
            ("next_oid".into(), Value::Num(self.next_oid as f64)),
            (
                "classes".into(),
                Value::Obj(
                    names.into_iter().map(|n| (n.clone(), self.classes[n].to_json())).collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> std::result::Result<Self, String> {
        let next_oid = v.get("next_oid").and_then(Value::as_u64).ok_or("missing next_oid")?;
        let classes = match v.get("classes") {
            Some(Value::Obj(members)) => members
                .iter()
                .map(|(name, c)| ClassMeta::from_json(c).map(|m| (name.clone(), m)))
                .collect::<std::result::Result<HashMap<_, _>, String>>()?,
            Some(_) => return Err("classes is not an object".into()),
            None => HashMap::new(),
        };
        let snapshot_lsn = v.get("lsn").and_then(Value::as_u64).unwrap_or(0);
        Ok(Self { next_oid, classes, snapshot_lsn, changes: 0 })
    }

    /// Apply a change. Idempotent, so replaying a record twice is harmless.
    fn apply(&mut self, next_oid: u64, change: Change) {
        self.next_oid = self.next_oid.max(next_oid);
        match change {
            Change::Oid => {}
            Change::Put(meta) => {
                self.classes.insert(meta.name.clone(), meta);
            }
            Change::Drop(name) => {
                self.classes.remove(&name);
            }
        }
        self.changes += 1;
    }

    fn class(&self, name: &str) -> Result<&ClassMeta> {
        self.classes
            .get(name)
            .ok_or_else(|| HeapError::Catalog(format!("class \"{name}\" does not exist")))
    }
}

impl Change {
    fn encode(&self, next_oid: u64) -> Vec<u8> {
        let mut members = vec![("next_oid".into(), Value::Num(next_oid as f64))];
        match self {
            Change::Oid => {}
            Change::Put(meta) => members.push(("class".into(), meta.to_json())),
            Change::Drop(name) => members.push(("drop".into(), Value::Str(name.clone()))),
        }
        json::to_string(&Value::Obj(members)).into_bytes()
    }

    fn decode(body: &[u8]) -> std::result::Result<(u64, Change), String> {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let next_oid = v.get("next_oid").and_then(Value::as_u64).ok_or("missing next_oid")?;
        let change = match (v.get("class"), v.get("drop").and_then(Value::as_str)) {
            (Some(c), _) => Change::Put(ClassMeta::from_json(c)?),
            (None, Some(name)) => Change::Drop(name.to_string()),
            (None, None) => Change::Oid,
        };
        Ok((next_oid, change))
    }
}

impl ClassMeta {
    fn to_json(&self) -> Value {
        let mut prop_keys: Vec<&String> = self.props.keys().collect();
        prop_keys.sort();
        Value::Obj(vec![
            ("oid".into(), Value::Num(self.oid as f64)),
            ("name".into(), Value::Str(self.name.clone())),
            (
                "kind".into(),
                Value::Str(
                    match self.kind {
                        ClassKind::Heap => "Heap",
                        ClassKind::BTree => "BTree",
                    }
                    .into(),
                ),
            ),
            ("smgr".into(), Value::Num(self.smgr as f64)),
            (
                "props".into(),
                Value::Obj(
                    prop_keys
                        .into_iter()
                        .map(|k| (k.clone(), Value::Str(self.props[k].clone())))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> std::result::Result<Self, String> {
        Ok(Self {
            oid: v.get("oid").and_then(Value::as_u64).ok_or("missing oid")?,
            name: v.get("name").and_then(Value::as_str).ok_or("missing name")?.to_string(),
            kind: match v.get("kind").and_then(Value::as_str) {
                Some("Heap") => ClassKind::Heap,
                Some("BTree") => ClassKind::BTree,
                other => return Err(format!("bad kind {other:?}")),
            },
            smgr: v
                .get("smgr")
                .and_then(Value::as_u64)
                .and_then(|n| u16::try_from(n).ok())
                .ok_or("missing smgr")?,
            props: match v.get("props") {
                Some(p) => p.as_string_map().ok_or("props is not a string map")?,
                None => HashMap::new(),
            },
        })
    }
}

/// The catalog. Thread-safe and durable under a database directory.
///
/// The catalog's durability path is the redo log: each mutator
/// appends the change as a [`WalRecord::Catalog`] while holding the data
/// lock, so records land in the log in the order they were applied, and
/// the next commit's group flush makes them durable like page images.
/// `<dir>/catalog.json` is only a checkpoint artifact ([`Self::checkpoint`]),
/// stamped with the log position it is current through; opening reads it
/// and replay re-applies the records at or past that position
/// ([`Self::redo`]).
pub struct Catalog {
    data: Mutex<CatalogData>,
    wal: Arc<Wal>,
    path: PathBuf,
    /// `CatalogData::changes` as of the last snapshot written; rank
    /// `heap.catalog_checkpoint`, held across a whole checkpoint so
    /// snapshots reach the file in render order.
    written: Mutex<u64>,
}

/// First OID handed out (lower values reserved for future bootstrap use).
const FIRST_OID: u64 = 1000;

impl Catalog {
    /// Load (or initialize) a catalog snapshot under `dir`, logging
    /// changes to `wal`. Replay the log through [`Self::redo`] before use.
    pub fn open(dir: impl AsRef<Path>, wal: Arc<Wal>) -> Result<Self> {
        let path = dir.as_ref().join("catalog.json");
        let data = if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| HeapError::Catalog(format!("read {}: {e}", path.display())))?;
            let value = json::parse(&text)
                .map_err(|e| HeapError::Catalog(format!("parse {}: {e}", path.display())))?;
            CatalogData::from_json(&value)
                .map_err(|e| HeapError::Catalog(format!("parse {}: {e}", path.display())))?
        } else {
            CatalogData { next_oid: FIRST_OID, ..Default::default() }
        };
        Ok(Self {
            data: Mutex::with_rank(data, ranks::CATALOG),
            wal,
            path,
            written: Mutex::with_rank(0, ranks::CATALOG_CHECKPOINT),
        })
    }

    /// Re-apply a replayed [`WalRecord::Catalog`] body found at `lsn`.
    /// Records the snapshot already reflects are skipped.
    pub fn redo(&self, lsn: Lsn, body: &[u8]) -> Result<()> {
        let mut data = self.data.lock();
        if lsn < data.snapshot_lsn {
            return Ok(());
        }
        let (next_oid, change) = Change::decode(body)
            .map_err(|e| HeapError::Catalog(format!("catalog record at lsn {lsn}: {e}")))?;
        data.apply(next_oid, change);
        Ok(())
    }

    /// Log `change`, then apply it. Called with the data lock held, so
    /// log order is apply order; nothing is applied if the append fails.
    fn log_and_apply(&self, data: &mut CatalogData, next_oid: u64, change: Change) -> Result<()> {
        self.wal
            .append(&WalRecord::Catalog { body: change.encode(next_oid) })
            .map_err(|e| HeapError::Catalog(format!("log catalog change: {e}")))?;
        data.apply(next_oid, change);
        Ok(())
    }

    /// Write `catalog.json` if the catalog changed since the last
    /// snapshot, stamped with the log end read under the data lock.
    /// Returns that position: every catalog record below it is in the
    /// file, so the redo horizon may advance up to it, never past.
    pub fn checkpoint(&self) -> Result<Lsn> {
        let mut written = self.written.lock();
        let (changes, lsn, text) = {
            let data = self.data.lock();
            let lsn = self.wal.end_lsn();
            if data.changes == *written {
                return Ok(lsn);
            }
            (data.changes, lsn, json::to_string_pretty(&data.to_json(lsn)))
        };
        // The records the snapshot absorbs must be durable before it is:
        // a log that lost its tail would otherwise restart below `lsn`,
        // and replay would skip the new records written there.
        self.wal.flush_to(lsn).map_err(|e| HeapError::Catalog(format!("flush log: {e}")))?;
        // LINT: allow(R7, the checkpoint lock orders snapshot writes; it is held only on the checkpoint path and never by mutators)
        atomic_write(&self.path, &text)?;
        *written = changes;
        Ok(lsn)
    }

    /// Allocate a fresh OID (also used for relations that have no name,
    /// like per-large-object chunk classes).
    pub fn alloc_oid(&self) -> Result<u64> {
        let mut data = self.data.lock();
        let oid = data.next_oid;
        self.log_and_apply(&mut data, oid + 1, Change::Oid)?;
        Ok(oid)
    }

    /// Register a class. Errors if the name is taken.
    pub fn create_class(
        &self,
        name: &str,
        kind: ClassKind,
        smgr: SmgrId,
        props: HashMap<String, String>,
    ) -> Result<ClassMeta> {
        let mut data = self.data.lock();
        if data.classes.contains_key(name) {
            return Err(HeapError::Catalog(format!("class \"{name}\" already exists")));
        }
        let oid = data.next_oid;
        let meta = ClassMeta { oid, name: name.to_string(), kind, smgr: smgr.0, props };
        self.log_and_apply(&mut data, oid + 1, Change::Put(meta.clone()))?;
        Ok(meta)
    }

    /// Remove a class by name, returning its metadata.
    pub fn drop_class(&self, name: &str) -> Result<ClassMeta> {
        let mut data = self.data.lock();
        let meta = data.class(name)?.clone();
        let next_oid = data.next_oid;
        self.log_and_apply(&mut data, next_oid, Change::Drop(name.to_string()))?;
        Ok(meta)
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<ClassMeta> {
        self.data.lock().classes.get(name).cloned()
    }

    /// Look up by OID.
    pub fn get_by_oid(&self, oid: u64) -> Option<ClassMeta> {
        self.data.lock().classes.values().find(|c| c.oid == oid).cloned()
    }

    /// All class names, sorted.
    pub fn class_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.data.lock().classes.keys().cloned().collect();
        names.sort();
        names
    }

    /// Replace class `name`'s metadata with `edit` applied to a copy,
    /// as one logged change.
    fn edit_class<T>(&self, name: &str, edit: impl FnOnce(&mut ClassMeta) -> T) -> Result<T> {
        let mut data = self.data.lock();
        let mut meta = data.class(name)?.clone();
        let out = edit(&mut meta);
        let next_oid = data.next_oid;
        self.log_and_apply(&mut data, next_oid, Change::Put(meta))?;
        Ok(out)
    }

    /// Replace a class's property bag (e.g. the query layer updating a
    /// schema).
    pub fn update_props(&self, name: &str, props: HashMap<String, String>) -> Result<()> {
        self.edit_class(name, |meta| meta.props = props)
    }

    /// Remove one property from a class. Returns whether it existed.
    pub fn remove_prop(&self, name: &str, key: &str) -> Result<bool> {
        self.edit_class(name, |meta| meta.props.remove(key).is_some())
    }

    /// Set one property on a class.
    pub fn set_prop(&self, name: &str, key: &str, value: &str) -> Result<()> {
        self.set_props(name, &[(key, value)])
    }

    /// Set several properties on a class as one change: a reader sees
    /// all of them or none, and they share one log record.
    pub fn set_props(&self, name: &str, props: &[(&str, &str)]) -> Result<()> {
        self.edit_class(name, |meta| {
            for (key, value) in props {
                meta.props.insert(key.to_string(), value.to_string());
            }
        })
    }
}

/// Write `text` to `path` via a sibling temp file + rename. The temp file
/// is fsynced before the rename, or a crash could persist the rename
/// ahead of the contents and leave an empty or partial file; the parent
/// directory is fsynced after it, or a crash could lose the rename itself
/// and resurrect the old snapshot.
fn atomic_write(path: &Path, text: &str) -> Result<()> {
    let tmp = path.with_extension("json.tmp");
    let io = |what: &str, e: std::io::Error| HeapError::Catalog(format!("{what}: {e}"));
    let mut file = std::fs::File::create(&tmp).map_err(|e| io("create temp snapshot", e))?;
    file.write_all(text.as_bytes()).map_err(|e| io("write temp snapshot", e))?;
    file.sync_all().map_err(|e| io("sync temp snapshot", e))?;
    std::fs::rename(&tmp, path).map_err(|e| io("rename", e))?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io("sync dir", e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_drop() {
        let (_dir, _wal, cat) = temp_catalog();
        let meta = cat.create_class("EMP", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
        assert!(meta.oid >= FIRST_OID);
        assert_eq!(cat.get("EMP").unwrap().oid, meta.oid);
        assert_eq!(cat.get_by_oid(meta.oid).unwrap().name, "EMP");
        assert!(cat.create_class("EMP", ClassKind::Heap, SmgrId(0), HashMap::new()).is_err());
        cat.drop_class("EMP").unwrap();
        assert!(cat.get("EMP").is_none());
        assert!(cat.drop_class("EMP").is_err());
    }

    #[test]
    fn oids_unique() {
        let (_dir, _wal, cat) = temp_catalog();
        let a = cat.alloc_oid().unwrap();
        let b = cat.alloc_oid().unwrap();
        let c = cat.create_class("X", ClassKind::BTree, SmgrId(1), HashMap::new()).unwrap().oid;
        assert!(a < b && b < c);
    }

    /// Open the log and catalog under `dir` and replay, as
    /// `StorageEnv::open_with` does.
    fn open_durable(dir: &Path) -> (Arc<Wal>, Catalog) {
        let wal = Arc::new(Wal::open(dir.join("wal"), Default::default()).unwrap());
        let cat = Catalog::open(dir, Arc::clone(&wal)).unwrap();
        wal.replay(|lsn, rec| {
            if let WalRecord::Catalog { body } = rec {
                cat.redo(lsn, &body).unwrap();
            }
            Ok(())
        })
        .unwrap();
        (wal, cat)
    }

    fn temp_catalog() -> (tempfile::TempDir, Arc<Wal>, Catalog) {
        let dir = tempfile::tempdir().unwrap();
        let (wal, cat) = open_durable(dir.path());
        (dir, wal, cat)
    }

    #[test]
    fn persists_and_reloads() {
        let dir = tempfile::tempdir().unwrap();
        {
            let (_wal, cat) = open_durable(dir.path());
            let mut props = HashMap::new();
            props.insert("schema".to_string(), "name=text".to_string());
            cat.create_class("EMP", ClassKind::Heap, SmgrId(2), props).unwrap();
        }
        let (_wal, cat) = open_durable(dir.path());
        let meta = cat.get("EMP").unwrap();
        assert_eq!(meta.smgr_id(), SmgrId(2));
        assert_eq!(meta.props.get("schema").unwrap(), "name=text");
        // OID counter resumed, no collisions.
        let next = cat.alloc_oid().unwrap();
        assert!(next > meta.oid);
    }

    #[test]
    fn mutations_log_and_checkpoint_writes_only_on_change() {
        let dir = tempfile::tempdir().unwrap();
        let file = dir.path().join("catalog.json");
        let (wal, cat) = open_durable(dir.path());
        cat.create_class("T", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
        let before = wal.end_lsn();
        cat.set_props("T", &[("size", "10"), ("size_xid", "7")]).unwrap();
        let one_record = wal.end_lsn() - before;
        assert!(one_record > 0 && one_record < 512, "one small record, got {one_record} B");
        assert!(!file.exists(), "mutators never write the snapshot");

        let lsn = cat.checkpoint().unwrap();
        assert_eq!(lsn, wal.end_lsn());
        let snap = std::fs::read(&file).unwrap();
        assert!(String::from_utf8_lossy(&snap).contains(&format!("\"lsn\": {lsn}")));
        std::fs::remove_file(&file).unwrap();
        cat.get("T").unwrap();
        assert_eq!(cat.checkpoint().unwrap(), lsn);
        assert!(!file.exists(), "an unchanged catalog is not rewritten");

        // Records past the snapshot replay on top of it; records below
        // it are skipped even though the log still holds them.
        std::fs::write(&file, &snap).unwrap();
        cat.drop_class("T").unwrap();
        let x = cat.create_class("X", ClassKind::BTree, SmgrId(1), HashMap::new()).unwrap();
        drop((wal, cat));
        let (_wal, cat) = open_durable(dir.path());
        assert!(cat.get("T").is_none());
        assert_eq!(cat.get("X").unwrap().oid, x.oid);
        assert!(cat.alloc_oid().unwrap() > x.oid);
    }

    #[test]
    fn set_props_is_one_change() {
        let (_dir, _wal, cat) = temp_catalog();
        cat.create_class("T", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
        let changes = cat.data.lock().changes;
        cat.set_props("T", &[("a", "1"), ("b", "2")]).unwrap();
        assert_eq!(cat.data.lock().changes, changes + 1);
        let props = cat.get("T").unwrap().props;
        assert_eq!((props["a"].as_str(), props["b"].as_str()), ("1", "2"));
        assert!(cat.set_props("missing", &[("a", "1")]).is_err());
    }

    #[test]
    fn props_update() {
        let (_dir, _wal, cat) = temp_catalog();
        cat.create_class("T", ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
        cat.set_prop("T", "rows", "42").unwrap();
        assert_eq!(cat.get("T").unwrap().props.get("rows").unwrap(), "42");
        let mut props = HashMap::new();
        props.insert("k".into(), "v".into());
        cat.update_props("T", props).unwrap();
        let meta = cat.get("T").unwrap();
        assert!(!meta.props.contains_key("rows"));
        assert_eq!(meta.props.get("k").unwrap(), "v");
        assert!(cat.set_prop("missing", "a", "b").is_err());
    }

    #[test]
    fn class_names_sorted() {
        let (_dir, _wal, cat) = temp_catalog();
        for n in ["zeta", "alpha", "mid"] {
            cat.create_class(n, ClassKind::Heap, SmgrId(0), HashMap::new()).unwrap();
        }
        assert_eq!(cat.class_names(), vec!["alpha", "mid", "zeta"]);
    }
}
