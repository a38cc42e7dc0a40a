//! Dataset schemas: ordered, named, typed field lists.

use papar_config::input::{FieldDef, FieldType, InputConfig};
use std::fmt;
use std::sync::Arc;

use crate::{CodecError, Result};

/// The field layout of a dataset.
///
/// A schema starts from an InputData configuration and can be *extended* by
/// add-on operators, which append new attributes (paper Section III-B: the
/// PowerLyra `count` add-on appends `indegree` to every edge record).
/// Schemas are cheap to share (`Arc` them) and compare.
#[derive(Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<FieldDef>,
    /// [`Schema::binary_record_width`], computed once: decoders ask for
    /// it once per record.
    width: Option<usize>,
}

impl Schema {
    /// Build a schema from explicit `(name, type)` pairs.
    pub fn new(fields: Vec<(impl Into<String>, FieldType)>) -> Self {
        Schema::from_fields(
            fields
                .into_iter()
                .map(|(name, ty)| FieldDef::new(name, ty))
                .collect(),
        )
    }

    /// The flattened schema of an InputData configuration.
    pub fn from_input_config(cfg: &InputConfig) -> Self {
        Schema::from_fields(cfg.fields())
    }

    fn from_fields(fields: Vec<FieldDef>) -> Self {
        let width = fields.iter().map(|f| f.ty.binary_width()).sum();
        Schema { fields, width }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields (never produced by parsing, but
    /// possible when built programmatically).
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Index of the field named `name`, with a descriptive error.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name).ok_or_else(|| {
            CodecError(format!(
                "no field '{name}' in schema [{}]",
                self.fields
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    /// A new schema with one extra field appended (add-on attribute).
    ///
    /// Returns an error if the name is already taken — attributes must be
    /// fresh, matching the paper's semantics where add-ons *add* attributes.
    pub fn with_attr(&self, name: &str, ty: FieldType) -> Result<Arc<Schema>> {
        if self.index_of(name).is_some() {
            return Err(CodecError(format!(
                "attribute '{name}' already exists in schema"
            )));
        }
        let mut fields = self.fields.clone();
        fields.push(FieldDef::new(name, ty));
        Ok(Arc::new(Schema::from_fields(fields)))
    }

    /// A new schema with the named field removed (used by `unpack` when the
    /// final output must match the original input format, and by CSC
    /// compression which factors out the group key).
    pub fn without_field(&self, name: &str) -> Result<Arc<Schema>> {
        let idx = self.require(name)?;
        let mut fields = self.fields.clone();
        fields.remove(idx);
        Ok(Arc::new(Schema::from_fields(fields)))
    }

    /// Total width in bytes of one record in the fixed-width binary format,
    /// if every field has a fixed width.
    pub fn binary_record_width(&self) -> Option<usize> {
        self.width
    }
}

/// The field list only: plan fingerprints hash the `Debug` form of job
/// kinds that hold schemas, so it must not change with the cached width.
impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schema")
            .field("fields", &self.fields)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blast_schema() -> Schema {
        Schema::new(vec![
            ("seq_start", FieldType::Integer),
            ("seq_size", FieldType::Integer),
            ("desc_start", FieldType::Integer),
            ("desc_size", FieldType::Integer),
        ])
    }

    #[test]
    fn index_lookup() {
        let s = blast_schema();
        assert_eq!(s.index_of("seq_size"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.require("desc_size").is_ok());
        assert!(s.require("nope").is_err());
    }

    #[test]
    fn binary_width() {
        assert_eq!(blast_schema().binary_record_width(), Some(16));
        let s = Schema::new(vec![("a", FieldType::Str)]);
        assert_eq!(s.binary_record_width(), None);
        let s = blast_schema().with_attr("name", FieldType::Str).unwrap();
        assert_eq!(s.binary_record_width(), None);
        assert_eq!(
            s.without_field("name").unwrap().binary_record_width(),
            Some(16)
        );
    }

    #[test]
    fn debug_shows_the_fields_only() {
        let s = Schema::new(vec![("k", FieldType::Integer)]);
        assert_eq!(
            format!("{s:?}"),
            format!("Schema {{ fields: {:?} }}", s.fields())
        );
    }

    #[test]
    fn with_attr_appends_fresh_field() {
        let s = Schema::new(vec![
            ("vertex_a", FieldType::Str),
            ("vertex_b", FieldType::Str),
        ]);
        let s2 = s.with_attr("indegree", FieldType::Long).unwrap();
        assert_eq!(s2.len(), 3);
        assert_eq!(s2.index_of("indegree"), Some(2));
        assert!(s.with_attr("vertex_a", FieldType::Long).is_err());
    }

    #[test]
    fn without_field_removes() {
        let s = blast_schema();
        let s2 = s.without_field("desc_start").unwrap();
        assert_eq!(s2.len(), 3);
        assert_eq!(s2.index_of("desc_size"), Some(2));
        assert!(s.without_field("ghost").is_err());
    }

    #[test]
    fn from_input_config_flattens() {
        let cfg = InputConfig::parse_str(
            r#"
<input id="blast_db" name="n">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"#,
        )
        .unwrap();
        let s = Schema::from_input_config(&cfg);
        assert_eq!(s, blast_schema());
    }
}
