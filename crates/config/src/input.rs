//! The **InputData** configuration: a programming-free description of an
//! input file's record layout (paper Section III-A, Figures 4 and 5).
//!
//! Two kinds of files are supported, matching the paper's two driving
//! applications:
//!
//! * **binary** — fixed-width records starting at `start_position` bytes
//!   into the file (the muBLASTP sequence index: four 4-byte integers per
//!   record), and
//! * **text** — delimiter-separated fields, one record per terminating
//!   delimiter (the PowerLyra edge list: `vertex_a \t vertex_b \n`).
//!
//! Derived (nested) data types are expressed by nesting `<element>` inside
//! `<element>`; the flattened field list is what codecs consume.

use crate::error::{ConfigError, Result};
use crate::xml::{self, Element, Span};

/// How the bytes of the input file are organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// Fixed-width binary records.
    Binary,
    /// Delimited text records.
    Text,
}

impl InputFormat {
    fn parse(s: &str) -> Result<Self> {
        match s {
            "binary" => Ok(InputFormat::Binary),
            "text" => Ok(InputFormat::Text),
            other => Err(ConfigError::schema(format!(
                "unknown input_format '{other}' (expected 'binary' or 'text')"
            ))),
        }
    }
}

/// The primitive type of one record field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// 32-bit signed integer (the paper's `integer`). 4 bytes in binary files.
    Integer,
    /// 64-bit signed integer (`long`). 8 bytes in binary files.
    Long,
    /// 64-bit float (`double`). 8 bytes in binary files.
    Double,
    /// UTF-8 string (`String`). Only valid in text inputs, where field
    /// boundaries come from delimiters.
    Str,
}

impl FieldType {
    /// Parse the paper's type spellings (case-insensitive on the first
    /// letter, as the figures mix `integer` and `String`).
    pub fn parse(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "integer" | "int" => Ok(FieldType::Integer),
            "long" => Ok(FieldType::Long),
            "double" | "float" => Ok(FieldType::Double),
            "string" => Ok(FieldType::Str),
            other => Err(ConfigError::schema(format!("unknown field type '{other}'"))),
        }
    }

    /// Size of this field inside a fixed-width binary record, if it has one.
    #[inline]
    pub fn binary_width(&self) -> Option<usize> {
        match self {
            FieldType::Integer => Some(4),
            FieldType::Long => Some(8),
            FieldType::Double => Some(8),
            FieldType::Str => None,
        }
    }
}

/// One named, typed field of a record.
#[derive(Debug, Clone, Eq)]
pub struct FieldDef {
    /// Field name, the handle used as a key in workflow configurations.
    pub name: String,
    /// Primitive type.
    pub ty: FieldType,
    /// Position of the declaring `<value>` element ([`Span::UNKNOWN`] for
    /// programmatically-built fields).
    pub span: Span,
}

impl FieldDef {
    /// A field without a source position.
    pub fn new(name: impl Into<String>, ty: FieldType) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            span: Span::UNKNOWN,
        }
    }
}

impl PartialEq for FieldDef {
    /// Content equality; spans are ignored so schemas built from code and
    /// schemas parsed from documents compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.ty == other.ty
    }
}

/// One item of an `<element>` description, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElementItem {
    /// A `<value name=.. type=../>` field.
    Field(FieldDef),
    /// A `<delimiter value=../>` separator (text inputs only). The stored
    /// string has escape sequences (`\t`, `\n`, ...) already decoded.
    Delimiter(String),
    /// A nested `<element>` describing a derived data type.
    Nested(Vec<ElementItem>),
}

/// A parsed InputData configuration (one `<input>` document).
///
/// Equality ignores the root [`Span`] (content equality), matching the
/// convention of the other spanned types.
#[derive(Debug, Clone, Eq)]
pub struct InputConfig {
    /// Document id (`<input id=..>`), referenced by workflow `format=` attrs.
    pub id: String,
    /// Human-readable name.
    pub name: String,
    /// Binary or text.
    pub format: InputFormat,
    /// Bytes to skip before the first record (binary only; 0 otherwise).
    pub start_position: u64,
    /// The record layout, in document order.
    pub element: Vec<ElementItem>,
    /// Position of the `<input>` root element.
    pub span: Span,
}

impl PartialEq for InputConfig {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.name == other.name
            && self.format == other.format
            && self.start_position == other.start_position
            && self.element == other.element
    }
}

impl InputConfig {
    /// Parse an InputData document from XML text.
    pub fn parse_str(doc: &str) -> Result<Self> {
        Self::from_element(&xml::parse(doc)?)
    }

    /// Parse from XML text without semantic validation (see
    /// [`InputConfig::from_element_unchecked`]).
    pub fn parse_str_unchecked(doc: &str) -> Result<Self> {
        Self::from_element_unchecked(&xml::parse(doc)?)
    }

    /// Build from an already-parsed XML element.
    pub fn from_element(el: &Element) -> Result<Self> {
        let cfg = Self::from_element_unchecked(el)?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Build from an already-parsed XML element *without* running semantic
    /// validation. `papar check` uses this to report validation problems as
    /// structured diagnostics instead of stopping at the first one.
    pub fn from_element_unchecked(el: &Element) -> Result<Self> {
        if el.name != "input" {
            return Err(ConfigError::schema_at(
                format!("expected <input> root, found <{}>", el.name),
                el.span,
            ));
        }
        let id = el.req_attr("id")?.to_string();
        let name = el.attr("name").unwrap_or("").to_string();
        let format = InputFormat::parse(el.req_child("input_format")?.trimmed_text())?;
        let start_position = match el.child("start_position") {
            Some(sp) => sp.trimmed_text().parse::<u64>().map_err(|_| {
                ConfigError::schema_at(
                    format!(
                        "start_position '{}' is not a non-negative integer",
                        sp.trimmed_text()
                    ),
                    sp.span,
                )
            })?,
            None => 0,
        };
        let element = parse_element_items(el.req_child("element")?)?;
        Ok(InputConfig {
            id,
            name,
            format,
            start_position,
            element,
            span: el.span,
        })
    }

    /// Semantic validation: duplicate fields, format/type compatibility.
    pub fn validate(&self) -> Result<()> {
        let fields = self.fields();
        if fields.is_empty() {
            return Err(ConfigError::schema_at(
                "element defines no fields",
                self.span,
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            if !seen.insert(f.name.as_str()) {
                return Err(ConfigError::schema_at(
                    format!("duplicate field name '{}'", f.name),
                    f.span,
                ));
            }
        }
        match self.format {
            InputFormat::Binary => {
                for f in &fields {
                    if f.ty.binary_width().is_none() {
                        return Err(ConfigError::schema_at(
                            format!(
                                "field '{}' has type String, which is not valid in a binary input",
                                f.name
                            ),
                            f.span,
                        ));
                    }
                }
            }
            InputFormat::Text => {
                let has_delim = any_delimiter(&self.element);
                if !has_delim && fields.len() > 1 {
                    return Err(ConfigError::schema_at(
                        "text input with multiple fields needs <delimiter> separators",
                        self.span,
                    ));
                }
            }
        }
        Ok(())
    }

    /// The flattened field list, nested elements expanded in order.
    pub fn fields(&self) -> Vec<FieldDef> {
        let mut out = Vec::new();
        collect_fields(&self.element, &mut out);
        out
    }

    /// Index of a field by name, for key binding.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields().iter().position(|f| f.name == name)
    }

    /// Total bytes of one record for binary inputs.
    pub fn binary_record_width(&self) -> Option<usize> {
        if self.format != InputFormat::Binary {
            return None;
        }
        self.fields()
            .iter()
            .map(|f| f.ty.binary_width())
            .sum::<Option<usize>>()
    }

    /// The delimiters in document order (text inputs). The last one
    /// terminates a record.
    pub fn delimiters(&self) -> Vec<String> {
        let mut out = Vec::new();
        collect_delims(&self.element, &mut out);
        out
    }
}

fn collect_fields(items: &[ElementItem], out: &mut Vec<FieldDef>) {
    for it in items {
        match it {
            ElementItem::Field(f) => out.push(f.clone()),
            ElementItem::Nested(inner) => collect_fields(inner, out),
            ElementItem::Delimiter(_) => {}
        }
    }
}

fn collect_delims(items: &[ElementItem], out: &mut Vec<String>) {
    for it in items {
        match it {
            ElementItem::Delimiter(d) => out.push(d.clone()),
            ElementItem::Nested(inner) => collect_delims(inner, out),
            ElementItem::Field(_) => {}
        }
    }
}

fn any_delimiter(items: &[ElementItem]) -> bool {
    items.iter().any(|it| match it {
        ElementItem::Delimiter(_) => true,
        ElementItem::Nested(inner) => any_delimiter(inner),
        ElementItem::Field(_) => false,
    })
}

fn parse_element_items(el: &Element) -> Result<Vec<ElementItem>> {
    let mut items = Vec::new();
    for child in &el.children {
        match child.name.as_str() {
            "value" => {
                let name = child.req_attr("name")?.to_string();
                let ty = FieldType::parse(child.req_attr("type")?).map_err(|e| match e {
                    ConfigError::Schema(m) => ConfigError::schema_at(m, child.attr_span("type")),
                    other => other,
                })?;
                items.push(ElementItem::Field(FieldDef {
                    name,
                    ty,
                    span: child.span,
                }));
            }
            "delimiter" => {
                let raw = child.req_attr("value")?;
                items.push(ElementItem::Delimiter(decode_escapes(raw)?));
            }
            "element" => {
                items.push(ElementItem::Nested(parse_element_items(child)?));
            }
            other => {
                return Err(ConfigError::schema(format!(
                    "unexpected <{other}> inside <element>"
                )))
            }
        }
    }
    Ok(items)
}

/// Decode the backslash escapes the paper's figures use in delimiter values
/// (`\t`, `\n`, plus `\r`, `\\`, `\0` for completeness).
pub fn decode_escapes(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some('0') => out.push('\0'),
            Some(other) => {
                return Err(ConfigError::schema(format!(
                    "unknown escape sequence '\\{other}' in delimiter"
                )))
            }
            None => return Err(ConfigError::schema("dangling '\\' in delimiter")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG4: &str = r#"
<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"#;

    const FIG5: &str = r#"
<input id="graph_edge" name="edge lists">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="String"/>
    <delimiter value="\t"/>
    <value name="vertex_b" type="String"/>
    <delimiter value="\n"/>
  </element>
</input>"#;

    #[test]
    fn paper_figure4_blast_index() {
        let cfg = InputConfig::parse_str(FIG4).unwrap();
        assert_eq!(cfg.id, "blast_db");
        assert_eq!(cfg.format, InputFormat::Binary);
        assert_eq!(cfg.start_position, 32);
        let fields = cfg.fields();
        assert_eq!(
            fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            ["seq_start", "seq_size", "desc_start", "desc_size"]
        );
        // "every 16 bytes (4 bytes/integer * 4 integers) as an entry"
        assert_eq!(cfg.binary_record_width(), Some(16));
    }

    #[test]
    fn paper_figure5_edge_list() {
        let cfg = InputConfig::parse_str(FIG5).unwrap();
        assert_eq!(cfg.format, InputFormat::Text);
        assert_eq!(cfg.start_position, 0);
        assert_eq!(cfg.delimiters(), vec!["\t".to_string(), "\n".to_string()]);
        assert_eq!(cfg.field_index("vertex_b"), Some(1));
        assert_eq!(cfg.binary_record_width(), None);
    }

    #[test]
    fn nested_elements_flatten_in_order() {
        let doc = r#"
<input id="derived" name="n">
  <input_format>binary</input_format>
  <element>
    <value name="a" type="integer"/>
    <element>
      <value name="b" type="long"/>
      <value name="c" type="double"/>
    </element>
    <value name="d" type="integer"/>
  </element>
</input>"#;
        let cfg = InputConfig::parse_str(doc).unwrap();
        let names: Vec<_> = cfg.fields().iter().map(|f| f.name.clone()).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
        assert_eq!(cfg.binary_record_width(), Some(4 + 8 + 8 + 4));
    }

    #[test]
    fn rejects_string_in_binary() {
        let doc = r#"
<input id="x" name="n">
  <input_format>binary</input_format>
  <element><value name="s" type="String"/></element>
</input>"#;
        let e = InputConfig::parse_str(doc).unwrap_err();
        assert!(e.to_string().contains("not valid in a binary input"), "{e}");
    }

    #[test]
    fn rejects_duplicate_field_names() {
        let doc = r#"
<input id="x" name="n">
  <input_format>binary</input_format>
  <element>
    <value name="a" type="integer"/>
    <value name="a" type="integer"/>
  </element>
</input>"#;
        assert!(InputConfig::parse_str(doc).is_err());
    }

    #[test]
    fn rejects_text_without_delimiters() {
        let doc = r#"
<input id="x" name="n">
  <input_format>text</input_format>
  <element>
    <value name="a" type="String"/>
    <value name="b" type="String"/>
  </element>
</input>"#;
        assert!(InputConfig::parse_str(doc).is_err());
    }

    #[test]
    fn rejects_unknown_format_and_type() {
        let doc = r#"
<input id="x" name="n">
  <input_format>csv</input_format>
  <element><value name="a" type="integer"/></element>
</input>"#;
        assert!(InputConfig::parse_str(doc).is_err());
        let doc2 = r#"
<input id="x" name="n">
  <input_format>binary</input_format>
  <element><value name="a" type="quaternion"/></element>
</input>"#;
        assert!(InputConfig::parse_str(doc2).is_err());
    }

    #[test]
    fn start_position_defaults_to_zero_and_validates() {
        let doc = r#"
<input id="x" name="n">
  <input_format>binary</input_format>
  <start_position>nope</start_position>
  <element><value name="a" type="integer"/></element>
</input>"#;
        assert!(InputConfig::parse_str(doc).is_err());
    }

    #[test]
    fn escape_decoding() {
        assert_eq!(decode_escapes(r"\t").unwrap(), "\t");
        assert_eq!(decode_escapes(r"\n").unwrap(), "\n");
        assert_eq!(decode_escapes(r"a\\b").unwrap(), "a\\b");
        assert_eq!(decode_escapes(",").unwrap(), ",");
        assert!(decode_escapes(r"\q").is_err());
        assert!(decode_escapes("\\").is_err());
    }
}
