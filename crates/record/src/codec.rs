//! On-disk codecs for the two input formats of paper Section III-A.
//!
//! * [`binary`] — fixed-width binary records starting `start_position`
//!   bytes into the file (the muBLASTP index of Figure 4), and
//! * [`text`] — delimiter-separated text records (the edge lists of
//!   Figure 5).
//!
//! Both directions are provided so a PaPar workflow can write its output
//! partitions "with the same format of input" (paper Section III-C).
//!
//! Either input loads as [`crate::Rows`] without a record being decoded.
//! A binary input needs no decoder to be split: its records are
//! fixed-width, so a node's block is a byte range. The text reader splits
//! its input into the contiguous per-node blocks a scatter makes and hands
//! the per-block encoder to a caller's executor (`text::read_rows_on`), so
//! the blocks encode concurrently; the result is the same as encoding them
//! in order. `text::write_rows` writes rows back as text.

use crate::{Result, Rows};

/// The loader of block `i` of a split read: its records as rows. Blocks
/// are independent: they may be loaded in any order, on any thread.
pub type DecodeBlock<'a> = dyn Fn(usize) -> Result<Rows> + Sync + 'a;

/// One result per block, in block order.
pub type BlockResults = Vec<Result<Rows>>;

pub mod binary {
    //! Fixed-width binary records.

    use crate::wire::decode_fixed_record;
    use crate::{CodecError, Record, Result, Schema};
    use papar_config::input::{InputConfig, InputFormat};

    /// Decode every record from `data`, honoring the config's
    /// `start_position` and field widths.
    pub fn read(cfg: &InputConfig, schema: &Schema, data: &[u8]) -> Result<Vec<Record>> {
        if cfg.format != InputFormat::Binary {
            return Err(CodecError(format!(
                "input '{}' is not a binary input",
                cfg.id
            )));
        }
        let width = match schema.binary_record_width() {
            Some(0) => return Err(CodecError("schema has no fields".into())),
            Some(w) => w,
            None => return Err(CodecError("schema has variable-width fields".into())),
        };
        let start = cfg.start_position as usize;
        if data.len() < start {
            return Err(CodecError(format!(
                "file is {} bytes but start_position is {start}",
                data.len()
            )));
        }
        let body = &data[start..];
        if !body.len().is_multiple_of(width) {
            return Err(CodecError(format!(
                "trailing {} bytes do not form a whole {width}-byte record",
                body.len() % width
            )));
        }
        Ok(body
            .chunks_exact(width)
            .map(|row| decode_fixed_record(row, schema))
            .collect())
    }

    /// Encode records after a `start_position`-sized header.
    ///
    /// `header` is copied verbatim when given (it must be exactly
    /// `start_position` bytes); otherwise the header region is zero-filled,
    /// which is how the synthetic muBLASTP databases are written.
    pub fn write(
        cfg: &InputConfig,
        schema: &Schema,
        records: &[Record],
        header: Option<&[u8]>,
    ) -> Result<Vec<u8>> {
        let width = schema
            .binary_record_width()
            .ok_or_else(|| CodecError("schema has variable-width fields".into()))?;
        let start = cfg.start_position as usize;
        let mut out = Vec::with_capacity(start + records.len() * width);
        match header {
            Some(h) if h.len() == start => out.extend_from_slice(h),
            Some(h) => {
                return Err(CodecError(format!(
                    "header is {} bytes, start_position wants {start}",
                    h.len()
                )))
            }
            None => out.resize(start, 0),
        }
        for rec in records {
            if rec.arity() != schema.len() {
                return Err(CodecError(format!(
                    "record arity {} does not match schema arity {}",
                    rec.arity(),
                    schema.len()
                )));
            }
            for (v, f) in rec.values().iter().zip(schema.fields()) {
                crate::wire::encode_field(v, f.ty, &mut out)?;
            }
        }
        Ok(out)
    }
}

pub mod text {
    //! Delimiter-separated text records.

    use super::{BlockResults, DecodeBlock};
    use crate::batch::block_sizes;
    use crate::wire::{decode_field, encode_field, field_spans, put_len, Reader};
    use crate::{CodecError, Record, Result, Rows, Schema, Value};
    use papar_config::input::{FieldDef, FieldType, InputConfig, InputFormat};
    use std::fmt::Write;
    use std::sync::Arc;

    /// The delimiter plan derived from a text InputData configuration: one
    /// separator after each field; the final one terminates the record.
    /// When the configuration declares one fewer delimiter than fields, a
    /// newline terminator is implied.
    fn delimiter_plan(cfg: &InputConfig, n_fields: usize) -> Result<Vec<String>> {
        let mut delims = cfg.delimiters();
        if delims.len() == n_fields.saturating_sub(1) {
            delims.push("\n".to_string());
        }
        if delims.len() != n_fields {
            return Err(CodecError(format!(
                "input '{}' declares {} delimiters for {} fields (want {} or {})",
                cfg.id,
                cfg.delimiters().len(),
                n_fields,
                n_fields.saturating_sub(1),
                n_fields
            )));
        }
        if delims.iter().any(|d| d.is_empty()) {
            return Err(CodecError("empty delimiter".into()));
        }
        Ok(delims)
    }

    /// Decode every record from `data`.
    ///
    /// Empty trailing content after the last record terminator is accepted
    /// (files customarily end with the terminator); anything else that does
    /// not complete a record is an error.
    pub fn read(cfg: &InputConfig, schema: &Schema, data: &str) -> Result<Vec<Record>> {
        let delims = text_plan(cfg, schema)?;
        let mut out = Vec::new();
        let mut rest = data;
        while let Some(mut fields) = Fields::at(schema, &delims, rest) {
            let parsed =
                (&mut fields).map(|f| f.and_then(|(text, ty)| Value::parse_typed(text, ty)));
            out.push(Record::try_from_exact(parsed)?);
            rest = fields.rest;
        }
        Ok(out)
    }

    /// Every this many records the count pass notes where a record
    /// starts, so a block start is found by delimiting fewer than this
    /// many records from the nearest note instead of a second walk.
    const MARK_EVERY: usize = 256;

    /// [`read`] as `n` contiguous blocks of [`block_sizes`] rows, each
    /// record encoded straight from its text into its block's buffer
    /// (sized from the text: exactly, when every field is a string), never
    /// decoded. A first pass counts the records by their
    /// delimiters alone; `run(blocks, encode)` must return `encode(i)` for
    /// every block `i` in block order — on as many threads as it likes.
    /// The error is the first failing block's, which is the first
    /// malformed record in file order: what [`read`] reports.
    pub fn read_rows_on(
        cfg: &InputConfig,
        schema: &Arc<Schema>,
        data: &str,
        n: usize,
        run: impl FnOnce(usize, &DecodeBlock<'_>) -> BlockResults,
    ) -> Result<Vec<Rows>> {
        let delims = text_plan(cfg, schema)?;
        // Count pass: delimiters only, noting every MARK_EVERY-th start.
        let mut marks = Vec::new();
        let mut total = 0;
        let mut rest = data;
        loop {
            if total % MARK_EVERY == 0 {
                marks.push(data.len() - rest.len());
            }
            let Some(next) = delimit(schema, &delims, rest) else {
                break;
            };
            total += 1;
            rest = next;
        }
        // Block `i` covers its records; the last block also holds what
        // follows them: trailing whitespace, or the malformed record that
        // stopped the count.
        let sizes: Vec<usize> = block_sizes(total, n).collect();
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut first = 0;
        for size in &sizes {
            let mut at = &data[marks[first / MARK_EVERY]..];
            for _ in 0..first % MARK_EVERY {
                at = delimit(schema, &delims, at).unwrap_or_default();
            }
            starts.push(data.len() - at.len());
            first += size;
        }
        starts.push(data.len());
        let encode = |i: usize| {
            let text = &data[starts[i]..starts[i + 1]];
            let mut bytes = Vec::with_capacity(row_bytes(schema, &delims, text.len(), sizes[i]));
            let mut rest = text;
            for _ in 0..sizes[i] {
                let mut fields = Fields::at(schema, &delims, rest).ok_or_else(|| {
                    CodecError("text input ended before its counted records".into())
                })?;
                for field in &mut fields {
                    let (text, ty) = field?;
                    match ty {
                        FieldType::Str => {
                            put_len(&mut bytes, text.len())?;
                            bytes.extend_from_slice(text.as_bytes());
                        }
                        ty => encode_field(&Value::parse_typed(text, ty)?, ty, &mut bytes)?,
                    }
                }
                rest = fields.rest;
            }
            if let Some(fields) = Fields::at(schema, &delims, rest) {
                // Only a malformed record can follow the counted ones:
                // report it as `read` does.
                for field in fields {
                    let (text, ty) = field?;
                    Value::parse_typed(text, ty)?;
                }
                return Err(CodecError(
                    "text input holds more records than counted".into(),
                ));
            }
            Rows::new(schema.clone(), bytes)
        };
        run(sizes.len(), &encode).into_iter().collect()
    }

    /// The row bytes of `records` records held in `text` bytes, for a
    /// buffer's capacity: each record's text less its delimiters, plus a
    /// one-byte length per string and a width per fixed field. Exact when
    /// every field is a string shorter than 128 bytes and nothing trails
    /// the records; a longer string's length takes more bytes, and the
    /// buffer grows.
    fn row_bytes(schema: &Schema, delims: &[String], text: usize, records: usize) -> usize {
        let added: usize = (schema.fields().iter())
            .map(|f| f.ty.binary_width().unwrap_or(1))
            .sum();
        let delimiters: usize = delims.iter().map(String::len).sum();
        (text + added * records).saturating_sub(delimiters * records)
    }

    /// The delimiter plan of a text input, refusing a binary one.
    fn text_plan(cfg: &InputConfig, schema: &Schema) -> Result<Vec<String>> {
        if cfg.format != InputFormat::Text {
            return Err(CodecError(format!(
                "input '{}' is not a text input",
                cfg.id
            )));
        }
        delimiter_plan(cfg, schema.len())
    }

    /// The fields of the record at the head of a text, in schema order:
    /// each field's text and type, or the error of the first field whose
    /// delimiter is missing. After the last field, `rest` is what follows
    /// the record.
    struct Fields<'a, 's> {
        fields: std::iter::Zip<std::slice::Iter<'s, FieldDef>, std::slice::Iter<'s, String>>,
        rest: &'a str,
    }

    impl<'a, 's> Fields<'a, 's> {
        /// The record at the head of `rest`, or `None` when only
        /// whitespace is left.
        fn at(schema: &'s Schema, delims: &'s [String], rest: &'a str) -> Option<Self> {
            // Only trailing whitespace may remain after the last complete
            // record.
            if rest.trim_start().is_empty() && find_delim(rest, &delims[0]).is_none() {
                return None;
            }
            Some(Fields {
                fields: schema.fields().iter().zip(delims),
                rest,
            })
        }
    }

    impl<'a> Iterator for Fields<'a, '_> {
        type Item = Result<(&'a str, FieldType)>;

        fn next(&mut self) -> Option<Self::Item> {
            let (field, delim) = self.fields.next()?;
            let Some(at) = find_delim(self.rest, delim) else {
                return Some(Err(CodecError(format!(
                    "truncated record: missing delimiter {delim:?} for field '{}'",
                    field.name
                ))));
            };
            let text = &self.rest[..at];
            self.rest = &self.rest[at + delim.len()..];
            Some(Ok((text, field.ty)))
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            self.fields.size_hint()
        }
    }

    impl ExactSizeIterator for Fields<'_, '_> {}

    /// What follows the record at the head of `rest`, when its fields are
    /// all delimited.
    fn delimit<'a>(schema: &Schema, delims: &[String], rest: &'a str) -> Option<&'a str> {
        let mut fields = Fields::at(schema, delims, rest)?;
        fields.try_for_each(|f| f.map(drop)).ok()?;
        Some(fields.rest)
    }

    /// Where `delim` first occurs in `hay`. A one-byte delimiter is ASCII,
    /// so a byte match is always a char boundary and a byte search finds
    /// it; longer ones use the substring search.
    fn find_delim(hay: &str, delim: &str) -> Option<usize> {
        match *delim.as_bytes() {
            [byte] => hay.bytes().position(|b| b == byte),
            _ => hay.find(delim),
        }
    }

    /// Encode records in the configured text format.
    pub fn write(cfg: &InputConfig, schema: &Schema, records: &[Record]) -> Result<String> {
        let delims = delimiter_plan(cfg, schema.len())?;
        let mut out = String::new();
        for rec in records {
            if rec.arity() != schema.len() {
                return Err(CodecError(format!(
                    "record arity {} does not match schema arity {}",
                    rec.arity(),
                    schema.len()
                )));
            }
            for (v, d) in rec.values().iter().zip(&delims) {
                // Format in place; the value's text is what follows `start`.
                let start = out.len();
                write!(out, "{v}").expect("writing to a String cannot fail");
                check_text(&out[start..], d)?;
                out.push_str(d);
            }
        }
        Ok(out)
    }

    /// [`write`] of the records `rows` hold, to the same bytes, with no
    /// record decoded: a string is copied from its row, and only a
    /// numeric field is read to be formatted.
    pub fn write_rows(cfg: &InputConfig, rows: &Rows) -> Result<Vec<u8>> {
        let schema = rows.schema();
        let delims = delimiter_plan(cfg, schema.len())?;
        let mut out = Vec::with_capacity(rows.as_bytes().len());
        for row in rows.iter() {
            let spans = field_spans(row.as_bytes(), schema);
            for ((span, field), d) in spans.zip(schema.fields()).zip(&delims) {
                let start = out.len();
                match field.ty {
                    FieldType::Str => {
                        let mut r = Reader::new(span);
                        let len = r.read_len()?;
                        out.extend_from_slice(r.read_bytes(len)?);
                    }
                    ty => {
                        let v = decode_field(&mut Reader::new(span), ty)?;
                        std::io::Write::write_fmt(&mut out, format_args!("{v}"))
                            .expect("writing to a Vec cannot fail");
                    }
                }
                let text = &out[start..];
                let holds_delim = match *d.as_bytes() {
                    [byte] => text.contains(&byte),
                    _ => text.windows(d.len()).any(|w| w == d.as_bytes()),
                };
                if holds_delim {
                    check_text(&String::from_utf8_lossy(text), d)?;
                }
                out.extend_from_slice(d.as_bytes());
            }
        }
        Ok(out)
    }

    /// Refuse a value whose text holds its delimiter: it would not read
    /// back.
    fn check_text(text: &str, delim: &str) -> Result<()> {
        if text.contains(delim) {
            return Err(CodecError(format!(
                "value {text:?} contains the delimiter {delim:?}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rec, Schema};
    use papar_config::input::InputConfig;

    fn blast_cfg() -> InputConfig {
        InputConfig::parse_str(
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
        .unwrap()
    }

    fn edge_cfg() -> InputConfig {
        InputConfig::parse_str(
            r#"
<input id="graph_edge" name="n">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="String"/>
    <delimiter value="\t"/>
    <value name="vertex_b" type="String"/>
    <delimiter value="\n"/>
  </element>
</input>"#,
        )
        .unwrap()
    }

    #[test]
    fn binary_roundtrip_with_header() {
        let cfg = blast_cfg();
        let schema = Schema::from_input_config(&cfg);
        let records = vec![rec![0, 94, 0, 74], rec![94, 100, 74, 89]];
        let header = [7u8; 32];
        let bytes = binary::write(&cfg, &schema, &records, Some(&header)).unwrap();
        assert_eq!(bytes.len(), 32 + 2 * 16);
        assert_eq!(&bytes[..32], &header);
        let got = binary::read(&cfg, &schema, &bytes).unwrap();
        assert_eq!(got, records);
    }

    #[test]
    fn binary_zero_header_default() {
        let cfg = blast_cfg();
        let schema = Schema::from_input_config(&cfg);
        let bytes = binary::write(&cfg, &schema, &[rec![1, 2, 3, 4]], None).unwrap();
        assert!(bytes[..32].iter().all(|&b| b == 0));
    }

    #[test]
    fn binary_rejects_truncated_and_misaligned() {
        let cfg = blast_cfg();
        let schema = Schema::from_input_config(&cfg);
        // Shorter than the header.
        assert!(binary::read(&cfg, &schema, &[0u8; 16]).is_err());
        // Header plus a partial record.
        assert!(binary::read(&cfg, &schema, &[0u8; 32 + 10]).is_err());
        // Wrong-size explicit header.
        assert!(binary::write(&cfg, &schema, &[], Some(&[0u8; 8])).is_err());
    }

    #[test]
    fn binary_empty_body_is_ok() {
        let cfg = blast_cfg();
        let schema = Schema::from_input_config(&cfg);
        let got = binary::read(&cfg, &schema, &[0u8; 32]).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn text_roundtrip_edges() {
        let cfg = edge_cfg();
        let schema = Schema::from_input_config(&cfg);
        let records = vec![rec!["2", "1"], rec!["3", "1"], rec!["1", "2"]];
        let s = text::write(&cfg, &schema, &records).unwrap();
        assert_eq!(s, "2\t1\n3\t1\n1\t2\n");
        let got = text::read(&cfg, &schema, &s).unwrap();
        assert_eq!(got, records);
    }

    #[test]
    fn text_rejects_truncated_record() {
        let cfg = edge_cfg();
        let schema = Schema::from_input_config(&cfg);
        assert!(text::read(&cfg, &schema, "2\t1\n3").is_err());
        assert!(text::read(&cfg, &schema, "2\n").is_err());
    }

    #[test]
    fn text_accepts_trailing_whitespace_only() {
        let cfg = edge_cfg();
        let schema = Schema::from_input_config(&cfg);
        let got = text::read(&cfg, &schema, "2\t1\n  ").unwrap();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn text_numeric_fields_parse() {
        let cfg = InputConfig::parse_str(
            r#"
<input id="num" name="n">
  <input_format>text</input_format>
  <element>
    <value name="id" type="integer"/>
    <delimiter value=","/>
    <value name="score" type="double"/>
    <delimiter value="\n"/>
  </element>
</input>"#,
        )
        .unwrap();
        let schema = Schema::from_input_config(&cfg);
        let got = text::read(&cfg, &schema, "5,1.5\n6,2.25\n").unwrap();
        assert_eq!(got, vec![rec![5, 1.5], rec![6, 2.25]]);
        assert!(text::read(&cfg, &schema, "x,1.5\n").is_err());
    }

    #[test]
    fn text_write_rejects_value_containing_delimiter() {
        let cfg = edge_cfg();
        let schema = Schema::from_input_config(&cfg);
        assert!(text::write(&cfg, &schema, &[rec!["a\tb", "c"]]).is_err());
    }

    #[test]
    fn text_implied_newline_terminator() {
        let cfg = InputConfig::parse_str(
            r#"
<input id="pair" name="n">
  <input_format>text</input_format>
  <element>
    <value name="a" type="String"/>
    <delimiter value=" "/>
    <value name="b" type="String"/>
  </element>
</input>"#,
        )
        .unwrap();
        let schema = Schema::from_input_config(&cfg);
        let got = text::read(&cfg, &schema, "x y\nz w\n").unwrap();
        assert_eq!(got, vec![rec!["x", "y"], rec!["z", "w"]]);
    }

    /// [`text::read_rows_on`] with the blocks encoded in order.
    fn read_rows(
        cfg: &InputConfig,
        schema: &Schema,
        data: &str,
        n: usize,
    ) -> crate::Result<Vec<crate::Rows>> {
        let schema = std::sync::Arc::new(schema.clone());
        text::read_rows_on(cfg, &schema, data, n, |blocks, encode| {
            (0..blocks).map(encode).collect()
        })
    }

    #[test]
    fn read_rows_encodes_the_blocks_a_scatter_makes() {
        let tcfg = edge_cfg();
        let tschema = Schema::from_input_config(&tcfg);
        let edges: Vec<_> = (0..10).map(|i| rec![format!("v{i}"), "v0"]).collect();
        let text = text::write(&tcfg, &tschema, &edges).unwrap() + "\n ";
        for n in [1, 3, 4, 12] {
            let mut rest = edges.as_slice();
            let blocks: Vec<Vec<crate::Record>> = crate::batch::block_sizes(edges.len(), n)
                .map(|size| {
                    let (block, tail) = rest.split_at(size);
                    rest = tail;
                    block.to_vec()
                })
                .collect();
            let got = read_rows(&tcfg, &tschema, &text, n).unwrap();
            let got: Vec<_> = got.iter().map(|rows| rows.to_records()).collect();
            assert_eq!(got, blocks, "text n={n}");
        }
        // A malformed text record fails exactly as `read` fails, whichever
        // comes first: a value that does not parse, or a truncated record.
        let ncfg = InputConfig::parse_str(
            r#"
<input id="num" name="n">
  <input_format>text</input_format>
  <element>
    <value name="id" type="integer"/>
    <delimiter value=","/>
    <value name="score" type="integer"/>
    <delimiter value="\n"/>
  </element>
</input>"#,
        )
        .unwrap();
        let nschema = Schema::from_input_config(&ncfg);
        for bad in ["1,2\nx,3\n4,5\n6", "1,2\n3,4\n5", "1,2\n3,y\n5", "1,2\nx"] {
            let want = text::read(&ncfg, &nschema, bad).unwrap_err();
            assert_eq!(
                read_rows(&ncfg, &nschema, bad, 2).unwrap_err(),
                want,
                "{bad:?}"
            );
        }
    }

    #[test]
    fn rows_write_the_text_records_write() {
        let cfg = edge_cfg();
        let schema = Schema::from_input_config(&cfg);
        let edges = vec![rec!["2", "1"], rec!["zürich", ""], rec!["a b", "c"]];
        let text = text::write(&cfg, &schema, &edges).unwrap();
        let rows = read_rows(&cfg, &schema, &text, 1).unwrap().remove(0);
        assert_eq!(text::write_rows(&cfg, &rows).unwrap(), text.into_bytes());
        // A string holding its delimiter is refused as `write` refuses it.
        let schema = std::sync::Arc::new(schema);
        let mut bytes = Vec::new();
        crate::wire::encode_record(&rec!["a\tb", "c"], &schema, &mut bytes).unwrap();
        let rows = crate::Rows::new(schema.clone(), bytes).unwrap();
        assert_eq!(
            text::write_rows(&cfg, &rows).unwrap_err(),
            text::write(&cfg, &schema, &[rec!["a\tb", "c"]]).unwrap_err()
        );
    }

    #[test]
    fn wrong_format_cross_calls_error() {
        let bcfg = blast_cfg();
        let bschema = Schema::from_input_config(&bcfg);
        let tcfg = edge_cfg();
        let tschema = Schema::from_input_config(&tcfg);
        assert!(text::read(&bcfg, &bschema, "x").is_err());
        assert!(binary::read(&tcfg, &tschema, &[]).is_err());
    }
}
