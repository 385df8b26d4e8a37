//! The wire codec: one JSON spelling per value type ([`WireValue`]), and
//! the `wire_struct!` / `wire_variants!` tables that generate an object's
//! or an op-keyed enum's encode and decode from one row per field. The
//! macros expand where they are invoked, which must have this module's
//! items in scope.

use crate::json::Json;
use crate::proto::DecodeError;

/// An object's fields in wire order, as [`Json::obj`] takes them.
pub(crate) type Fields = Vec<(&'static str, Json)>;

/// A wire value type: its one JSON spelling.
pub(crate) trait WireValue: Sized {
    /// What a valid value looks like, for decode errors.
    fn expected() -> String;
    /// The JSON value.
    fn to_wire(&self) -> Json;
    /// Parses the JSON value: `Ok(None)` when it is not one (the caller
    /// names the key), `Err` when a nested field is malformed.
    fn from_wire(j: &Json) -> Result<Option<Self>, DecodeError>;
}

/// Scalars: their JSON spelling and what a valid one looks like.
/// Integers travel as JSON numbers, exact below 2^53 (which `as_u64` and
/// `as_i64` enforce), and are range-checked into the field type.
macro_rules! wire_scalar {
    ($($t:ty => $expected:literal, |$v:ident| $to:expr, |$j:ident| $from:expr;)*) => {$(
        impl WireValue for $t {
            fn expected() -> String {
                $expected.into()
            }
            fn to_wire(&self) -> Json {
                let $v = self;
                $to
            }
            fn from_wire($j: &Json) -> Result<Option<$t>, DecodeError> {
                Ok($from)
            }
        }
    )*};
}

wire_scalar! {
    f64 => "a number", |v| Json::num(*v), |j| j.as_f64();
    bool => "a boolean", |v| Json::Bool(*v), |j| j.as_bool();
    String => "a string", |v| Json::str(v.as_str()), |j| j.as_str().map(str::to_string);
    i32 => "a 32-bit integer", |v| Json::num(f64::from(*v)),
        |j| j.as_i64().and_then(|n| i32::try_from(n).ok());
    u32 => "a small integer", |v| Json::num(f64::from(*v)),
        |j| j.as_u64().and_then(|n| u32::try_from(n).ok());
    u64 => "an integer", |v| Json::num(*v as f64), |j| j.as_u64();
    usize => "an integer", |v| Json::num(*v as f64),
        |j| j.as_u64().and_then(|n| usize::try_from(n).ok());
}

/// `None` travels as `null`.
impl<T: WireValue> WireValue for Option<T> {
    fn expected() -> String {
        T::expected()
    }
    fn to_wire(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_wire)
    }
    fn from_wire(j: &Json) -> Result<Option<Self>, DecodeError> {
        if j.is_null() {
            return Ok(Some(None));
        }
        Ok(T::from_wire(j)?.map(Some))
    }
}

impl<T: WireValue> WireValue for Vec<T> {
    fn expected() -> String {
        "an array".into()
    }
    fn to_wire(&self) -> Json {
        Json::arr(self.iter().map(T::to_wire).collect())
    }
    fn from_wire(j: &Json) -> Result<Option<Self>, DecodeError> {
        // Any element of the wrong shape makes the array the wrong shape.
        match j.as_arr() {
            Some(items) => items.iter().map(T::from_wire).collect(),
            None => Ok(None),
        }
    }
}

/// A wire enum's spellings, each written once.
pub(crate) trait Spelled: Copy + PartialEq + 'static {
    /// Every variant with its wire spelling.
    const SPELLINGS: &'static [(Self, &'static str)];

    /// This variant's spelling.
    fn spelling(self) -> &'static str {
        let spelled = Self::SPELLINGS.iter().find(|(v, _)| *v == self);
        spelled.expect("every variant is spelled").1
    }

    /// The variant spelled `s`.
    fn from_spelling(s: &str) -> Option<Self> {
        let spelled = Self::SPELLINGS.iter().find(|(_, w)| *w == s);
        spelled.map(|&(v, _)| v)
    }
}

macro_rules! spelled {
    ($($t:ident { $($variant:ident => $s:literal),* })*) => {$(
        impl Spelled for $t {
            const SPELLINGS: &'static [($t, &'static str)] = &[$(($t::$variant, $s)),*];
        }
    )*};
}
pub(crate) use spelled;

impl<T: Spelled> WireValue for T {
    fn expected() -> String {
        let quoted: Vec<String> = T::SPELLINGS
            .iter()
            .map(|(_, s)| format!("\"{s}\""))
            .collect();
        let (last, init) = quoted.split_last().expect("an enum has variants");
        let comma = if init.len() > 1 { "," } else { "" };
        format!("{}{comma} or {last}", init.join(", "))
    }
    fn to_wire(&self) -> Json {
        Json::str(self.spelling())
    }
    fn from_wire(j: &Json) -> Result<Option<T>, DecodeError> {
        Ok(j.as_str().and_then(T::from_spelling))
    }
}

/// The `'<key>' must be <expected>` error of a mistyped key.
fn mistyped(key: &str, expected: &str) -> DecodeError {
    DecodeError::bad(format!("'{key}' must be {expected}"))
}

/// Parses `value` as key `key`'s wire type.
pub(crate) fn parse<T: WireValue>(key: &str, value: &Json) -> Result<T, DecodeError> {
    T::from_wire(value)?.ok_or_else(|| mistyped(key, &T::expected()))
}

/// Reads a required key of object `object`: absent or mistyped, it is
/// `<object> needs <expected> '<key>'`.
pub(crate) fn required<T: WireValue>(j: &Json, object: &str, key: &str) -> Result<T, DecodeError> {
    match j.get(key).map(T::from_wire).transpose()?.flatten() {
        Some(value) => Ok(value),
        None => Err(DecodeError::bad(format!(
            "{object} needs {} '{key}'",
            T::expected()
        ))),
    }
}

/// Reads a key that takes its default when absent or `null`. `expected`
/// overrides the type's own description in the mistyped-key error.
pub(crate) fn or_default<T: WireValue + Default>(
    j: &Json,
    key: &str,
    expected: Option<&str>,
) -> Result<T, DecodeError> {
    match (j.get(key), expected) {
        (None | Some(Json::Null), _) => Ok(T::default()),
        (Some(value), None) => parse(key, value),
        (Some(value), Some(e)) => T::from_wire(value)?.ok_or_else(|| mistyped(key, e)),
    }
}

/// A boxed table travels as the table.
impl<T: WireTable> WireTable for Box<T> {
    fn push_fields(&self, fields: &mut Fields) {
        T::push_fields(self, fields)
    }
    fn from_fields(j: &Json, object: &str) -> Result<Self, DecodeError> {
        T::from_fields(j, object).map(Box::new)
    }
}

/// Appends `key` unless `value` is its type's default.
pub(crate) fn push_omit<T: WireValue + Default + PartialEq>(
    fields: &mut Fields,
    key: &'static str,
    value: &T,
) {
    if *value != T::default() {
        fields.push((key, value.to_wire()));
    }
}

/// A wire object whose fields a `wire_struct!` table generates.
pub(crate) trait WireTable: Sized {
    /// Appends the fields in row order, which is the wire key order.
    fn push_fields(&self, fields: &mut Fields);
    /// Reads the fields; `object` names the enclosing object in errors.
    fn from_fields(j: &Json, object: &str) -> Result<Self, DecodeError>;
}

/// Generates a wire object's codec from one row per field: the field
/// (with an `as "key"` when the wire key differs), its type, and its
/// presence rule:
///
/// * *(none)* — required: always encoded; absent or mistyped is
///   `<object> needs <expected> '<key>'`;
/// * `omit` — omitted at the type's default (`None`, `0`, `false`);
///   absent or `null` decodes to the default;
/// * `null` — an `Option` always encoded, `None` as `null`; absent
///   decodes to `None`;
/// * `additive` — a key added after the first release: always encoded,
///   defaulted when an older peer's frame lacks it.
///
/// Two more rules shape the object rather than a key: `flatten` merges a
/// nested table's keys into this object, and `skip` keeps a field off the
/// wire (its enclosing frame carries it). A non-required rule may end in
/// a string that replaces the type's description in the `'<key>' must
/// be …` error. The `struct` form also defines the struct; the `impl`
/// form covers a type defined elsewhere.
macro_rules! wire_struct {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident as $object:literal {
            $(
                $(#[$doc:meta])*
                $field:ident $(as $key:literal)?: $ty:ty $(, $rule:ident $(, $e:literal)?)?;
            )*
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }
        wire_struct!(impl $name as $object {
            $($field $(as $key)?: $ty $(, $rule $(, $e)?)?;)*
        });
    };
    (
        impl $name:ident as $object:literal {
            $($field:ident $(as $key:literal)?: $ty:ty $(, $rule:ident $(, $e:literal)?)?;)*
        }
    ) => {
        impl WireTable for $name {
            fn push_fields(&self, fields: &mut Fields) {
                $(wire_struct!(
                    @push fields, wire_struct!(@key $field $($key)?), &self.$field $(, $rule)?
                );)*
            }
            // A table whose keys are all optional never names its object.
            #[allow(unused_variables)]
            fn from_fields(j: &Json, object: &str) -> Result<Self, DecodeError> {
                Ok($name {$(
                    $field: wire_struct!(
                        @read j, object, wire_struct!(@key $field $($key)?), $ty $(, $rule $(, $e)?)?
                    ),
                )*})
            }
        }

        impl WireValue for $name {
            fn expected() -> String {
                "an object".into()
            }
            fn to_wire(&self) -> Json {
                let mut fields = Vec::new();
                self.push_fields(&mut fields);
                Json::obj(fields)
            }
            fn from_wire(j: &Json) -> Result<Option<Self>, DecodeError> {
                Self::from_fields(j, $object).map(Some)
            }
        }
    };
    (@key $field:ident) => {
        stringify!($field)
    };
    (@key $field:ident $key:literal) => {
        $key
    };
    (@push $fields:ident, $key:expr, $value:expr $(, null)? $(, additive)?) => {
        $fields.push(($key, WireValue::to_wire($value)))
    };
    (@push $fields:ident, $key:expr, $value:expr, omit) => {
        push_omit($fields, $key, $value)
    };
    (@push $fields:ident, $key:expr, $value:expr, flatten) => {
        WireTable::push_fields($value, $fields)
    };
    (@push $fields:ident, $key:expr, $value:expr, skip) => {};
    (@read $j:ident, $object:expr, $key:expr, $ty:ty) => {
        required::<$ty>($j, $object, $key)?
    };
    (@read $j:ident, $object:expr, $key:expr, $ty:ty, flatten) => {
        <$ty as WireTable>::from_fields($j, $object)?
    };
    (@read $j:ident, $object:expr, $key:expr, $ty:ty, skip) => {
        <$ty>::default()
    };
    (@read $j:ident, $object:expr, $key:expr, $ty:ty, $rule:ident $(, $e:literal)?) => {
        or_default::<$ty>($j, $key, None $(.or(Some($e)))?)?
    };
}
pub(crate) use wire_struct;

/// Defines an enum of op-keyed frames. Every variant names its op; a
/// fixed-shape variant adds `as "<object>"` and, when it has fields,
/// `wire_struct!` rows, and a newtype variant names its [`WireTable`]
/// payload in parentheses. A variant coded by hand lists its fields as
/// `by_hand { … }`. Generates the enum, `op()`, and the encode and decode
/// of every variant not coded by hand.
macro_rules! wire_variants {
    (
        $(#[$attr:meta])*
        $vis:vis enum $enum:ident {$(
            $(#[$vdoc:meta])*
            $variant:ident $op:literal
            $(as $object:literal $({$(
                $(#[$fdoc:meta])*
                $field:ident: $ty:ty $(, $rule:ident)?;
            )*})?)?
            $(by_hand {$(
                $(#[$hdoc:meta])*
                $hfield:ident: $hty:ty;
            )*})?
            $(($inner:ty))?,
        )*}
    ) => {
        $(#[$attr])*
        $vis enum $enum {$(
            $(#[$vdoc])*
            $variant
            $($({$($(#[$fdoc])* $field: $ty,)*})?)?
            $({$($(#[$hdoc])* $hfield: $hty,)*})?
            $(($inner))?,
        )*}

        impl $enum {
            /// The wire op name.
            $vis fn op(&self) -> &'static str {
                match self {
                    $($enum::$variant { .. } => $op,)*
                }
            }

            /// Appends the fields (after the op) of a variant not coded by
            /// hand.
            // An enum with no hand-coded variant never reaches the last arm.
            #[allow(unreachable_patterns)]
            fn push_table_fields(&self, fields: &mut Fields) {
                match self {
                    $($($enum::$variant {$($($field),*)?} => {
                        $($(wire_struct!(@push fields, stringify!($field), $field $(, $rule)?);)*)?
                    })?)*
                    $($($enum::$variant(payload) => {
                        <$inner as WireTable>::push_fields(payload, fields)
                    })?)*
                    _ => unreachable!("'{}' frames are coded by hand", self.op()),
                }
            }

            /// Decodes the variant op `op` names; `None` for the ops coded
            /// by hand.
            // A field-less variant ignores its frame.
            #[allow(unused_variables)]
            fn decode_table(op: &str, j: &Json) -> Option<Result<Self, DecodeError>> {
                let decode: fn(&Json) -> Result<Self, DecodeError> = match op {
                    $($($op => |j| {
                        Ok($enum::$variant {$($(
                            $field: wire_struct!(@read j, $object, stringify!($field), $ty $(, $rule)?),
                        )*)?})
                    },)?)*
                    $($($op => |j| <$inner as WireTable>::from_fields(j, $op).map($enum::$variant),)?)*
                    _ => return None,
                };
                Some(decode(j))
            }
        }
    };
}
pub(crate) use wire_variants;
