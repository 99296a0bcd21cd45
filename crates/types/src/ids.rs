//! Identifier newtypes.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A data source identifier.
///
/// In the paper's deployments a data source is a machine (or the bundle of
/// monitored process + sniffer on it); ids are strings such as `m1` or
/// `Tao100`. Source ids live in the data source column of user relations
/// and in the key column of the `Heartbeat` table.
///
/// The id is a shared handle: `clone` bumps a reference count instead of
/// copying the string, so the change stream, the maintained member sets
/// and the served reports can all hold the same id for the cost of a
/// pointer.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(Arc<str>);

impl SourceId {
    /// Builds a source id from any string-like.
    pub fn new(s: impl Into<String>) -> SourceId {
        SourceId(Arc::from(s.into()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The id as a SQL [`Value`] (text).
    pub fn to_value(&self) -> Value {
        Value::text(&*self.0)
    }

    /// Extracts a source id from a [`Value`], if it is text.
    pub fn from_value(v: &Value) -> Option<SourceId> {
        v.as_text().map(SourceId::from)
    }
}

impl fmt::Debug for SourceId {
    /// Renders as the tuple struct over a `String` always did:
    /// `SourceId("m1")`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SourceId").field(&&*self.0).finish()
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Ids compare, order and hash exactly as the strings they hold, so a
/// set or map keyed by `SourceId` can be probed with a `&str`.
impl Borrow<str> for SourceId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for SourceId {
    fn from(s: &str) -> SourceId {
        SourceId(Arc::from(s))
    }
}

impl From<String> for SourceId {
    fn from(s: String) -> SourceId {
        SourceId(Arc::from(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn roundtrip_through_value() {
        let s = SourceId::new("m1");
        let v = s.to_value();
        assert_eq!(SourceId::from_value(&v), Some(s));
        assert_eq!(SourceId::from_value(&Value::Int(1)), None);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut ids = [SourceId::new("m2"), SourceId::new("m1")];
        ids.sort();
        assert_eq!(ids[0].as_str(), "m1");
        assert_eq!(ids[0].to_string(), "m1");
    }

    #[test]
    fn a_clone_shares_the_string() {
        let s = SourceId::new("Tao100");
        let c = s.clone();
        assert_eq!(s.as_str().as_ptr(), c.as_str().as_ptr());
        // A separately built id is equal but owns its own string.
        let t = SourceId::from("Tao100");
        assert_eq!(s, t);
        assert_ne!(s.as_str().as_ptr(), t.as_str().as_ptr());
    }

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn comparisons_hashing_and_rendering_follow_the_string() {
        let ids = ["", "m1", "m10", "m2", "Tao100", "é"];
        for a in ids {
            let sa = SourceId::new(a);
            assert_eq!(sa.to_string(), a);
            assert_eq!(format!("{sa:?}"), format!("SourceId({:?})", a.to_string()));
            assert_eq!(format!("{sa:#?}"), format!("SourceId(\n    {a:?},\n)"));
            assert_eq!(hash_of(&sa), hash_of(&SourceId::from(a.to_string())));
            assert_eq!(hash_of(&sa), hash_of(a), "hashes as the str it holds");
            let set: std::collections::BTreeSet<SourceId> = [sa.clone()].into();
            assert!(set.contains(a), "a set of ids is probed by str");
            for b in ids {
                let sb = SourceId::from(b);
                assert_eq!(sa.cmp(&sb), a.cmp(b), "{a} vs {b}");
                assert_eq!(sa == sb, a == b);
            }
        }
    }
}
