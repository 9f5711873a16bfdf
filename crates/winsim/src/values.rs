//! Dynamic values and argument packs for the simulated API dispatch table.
//!
//! Real Win32 calls pass typed C arguments; the simulation routes every call
//! through one dispatch function, so arguments and results are carried in a
//! small dynamic [`Value`] type. Hook handlers inspect and rewrite these
//! values, exactly as the paper's `scarecrow.dll` "inspects the call
//! parameters and return values".
//!
//! Strings are `Arc<str>`: an enumeration answer whose elements repeat a
//! few stored names (event sources, the fabricated DNS cache) clones one
//! shared allocation per element instead of copying the bytes.

use std::sync::Arc;

use crate::error::NtStatus;

/// A dynamically typed API argument or result.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// No value (void results).
    Unit,
    /// A boolean (`BOOL`).
    Bool(bool),
    /// A 64-bit unsigned integer (handles, sizes, counts, ticks).
    U64(u64),
    /// A signed integer (exit codes, coordinates).
    I64(i64),
    /// A string (paths, key names, domains), shared rather than copied
    /// when an answer repeats it.
    Str(Arc<str>),
    /// A list of values (enumerations).
    List(Vec<Value>),
    /// Raw bytes (registry binary values, code bytes).
    Bytes(Vec<u8>),
    /// An NTSTATUS code (native API results).
    Status(NtStatus),
}

impl Value {
    /// Interprets the value as a boolean.
    ///
    /// `U64`/`I64` follow C truthiness; `Status` maps to `NT_SUCCESS`.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Unit => false,
            Value::Bool(b) => *b,
            Value::U64(v) => *v != 0,
            Value::I64(v) => *v != 0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
            Value::Status(s) => s.is_success(),
        }
    }

    /// The value as a `u64`, if it is numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            Value::Bool(b) => Some(u64::from(*b)),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is numeric.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// The value as a status code.
    ///
    /// Non-`Status` values map to `Success`/`Unsuccessful` by truthiness so
    /// hook code can treat any API result uniformly.
    pub fn as_status(&self) -> NtStatus {
        match self {
            Value::Status(s) => *s,
            v if v.truthy() => NtStatus::Success,
            _ => NtStatus::Unsuccessful,
        }
    }

    /// The value as a list slice, if it is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// The value as a growable list, if it is a list (for hooks that
    /// append to a listing API's answer).
    pub fn as_list_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// The value as raw bytes, if it is a byte value.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}
impl From<NtStatus> for Value {
    fn from(v: NtStatus) -> Self {
        Value::Status(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

/// A positional argument pack for one API call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args(Vec<Value>);

impl Args {
    /// An empty argument pack.
    pub fn none() -> Self {
        Args(Vec::new())
    }

    /// Builds an argument pack from values.
    ///
    /// ```
    /// use winsim::{Args, Value};
    /// let args = Args::of([Value::from("HKLM\\SOFTWARE"), Value::from(true)]);
    /// assert_eq!(args.len(), 2);
    /// ```
    pub fn of<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Args(values.into_iter().collect())
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the pack is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `i`-th argument, if present.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// The `i`-th argument as a string, or `""`.
    pub fn str(&self, i: usize) -> &str {
        self.get(i).and_then(Value::as_str).unwrap_or("")
    }

    /// The `i`-th argument as a `u64`, or 0.
    pub fn u64(&self, i: usize) -> u64 {
        self.get(i).and_then(Value::as_u64).unwrap_or(0)
    }

    /// The `i`-th argument as a `bool`, or `false`.
    pub fn bool(&self, i: usize) -> bool {
        self.get(i).map(Value::truthy).unwrap_or(false)
    }

    /// Replaces the `i`-th argument (hooks may rewrite call parameters).
    pub fn set(&mut self, i: usize, v: Value) {
        if i < self.0.len() {
            self.0[i] = v;
        } else {
            while self.0.len() < i {
                self.0.push(Value::Unit);
            }
            self.0.push(v);
        }
    }

    /// All arguments in order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }
}

impl FromIterator<Value> for Args {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Args(iter.into_iter().collect())
    }
}

/// Shorthand for building an [`Args`] pack from heterogeneous values.
///
/// ```
/// use winsim::args;
/// let a = args!["SOFTWARE\\Oracle", 5u64, true];
/// assert_eq!(a.str(0), "SOFTWARE\\Oracle");
/// assert_eq!(a.u64(1), 5);
/// assert!(a.bool(2));
/// ```
#[macro_export]
macro_rules! args {
    () => { $crate::Args::none() };
    ($($v:expr),+ $(,)?) => {
        $crate::Args::of([$($crate::Value::from($v)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Unit.truthy());
        assert!(Value::U64(3).truthy());
        assert!(!Value::U64(0).truthy());
        assert!(Value::Status(NtStatus::Success).truthy());
        assert!(!Value::Status(NtStatus::AccessDenied).truthy());
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::I64(-1).as_u64(), None);
        assert_eq!(Value::U64(7).as_i64(), Some(7));
        assert_eq!(Value::Bool(true).as_u64(), Some(1));
    }

    #[test]
    fn status_coercion_for_non_status_values() {
        assert_eq!(Value::Bool(true).as_status(), NtStatus::Success);
        assert_eq!(Value::U64(0).as_status(), NtStatus::Unsuccessful);
    }

    #[test]
    fn args_accessors_are_total() {
        let a = args!["path", 9u64];
        assert_eq!(a.str(0), "path");
        assert_eq!(a.u64(1), 9);
        assert_eq!(a.str(5), "");
        assert_eq!(a.u64(5), 0);
        assert!(!a.bool(5));
    }

    #[test]
    fn args_set_extends() {
        let mut a = Args::none();
        a.set(2, Value::from(4u64));
        assert_eq!(a.len(), 3);
        assert_eq!(a.u64(2), 4);
        a.set(0, Value::from("x"));
        assert_eq!(a.str(0), "x");
    }
}
