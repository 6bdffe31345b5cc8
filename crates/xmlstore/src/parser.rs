//! A from-scratch, non-validating XML 1.0 parser feeding the
//! [`ArenaBuilder`](crate::arena::ArenaBuilder).
//!
//! Supported: elements, attributes (single/double quoted), character data,
//! CDATA sections, comments, processing instructions, the XML declaration,
//! DOCTYPE declarations (skipped, including internal subsets), the five
//! predefined entities and decimal/hex character references. Namespaces are
//! not expanded: qualified names are kept verbatim, matching the paper's
//! namespace-free evaluation documents.

use std::fmt;

use crate::arena::{ArenaBuilder, ArenaStore};

/// Bounds on document shape enforced during parsing (DESIGN.md §13).
///
/// A parser fed hostile input must fail with a typed [`XmlError`], never
/// exhaust a resource: the element stack is bounded so a
/// 100 000-element-deep document cannot drive later recursive consumers
/// (string-value collection, serialisation) into stack overflow, and
/// name/attribute/entity counts are bounded so a tiny input cannot demand
/// outsized memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum element nesting depth.
    pub max_depth: usize,
    /// Maximum byte length of an element/attribute/PI name.
    pub max_name_len: usize,
    /// Maximum number of attributes on one element.
    pub max_attrs: usize,
    /// Maximum number of entity/character references in the document.
    pub max_entity_expansions: u64,
}

impl Default for ParseLimits {
    fn default() -> ParseLimits {
        ParseLimits {
            // Deep enough for any realistic document, shallow enough that
            // the recursive consumers of the tree stay far from the
            // thread stack limit.
            max_depth: 4096,
            max_name_len: 1024,
            max_attrs: 512,
            max_entity_expansions: 1_000_000,
        }
    }
}

impl ParseLimits {
    /// Effectively unbounded limits (differential tests).
    pub fn unbounded() -> ParseLimits {
        ParseLimits {
            max_depth: usize::MAX,
            max_name_len: usize::MAX,
            max_attrs: usize::MAX,
            max_entity_expansions: u64::MAX,
        }
    }
}

/// Position-annotated XML parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in characters).
    pub column: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at {}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for XmlError {}

struct Cursor<'a> {
    input: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Cursor<'a> {
        Cursor { input: input.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError { message: msg.into(), line: self.line, column: self.col })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.starts_with(s) {
            self.bump_n(s.len());
            Ok(())
        } else {
            self.err(format!("expected `{s}`"))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Consume until `pat` (exclusive), returning the consumed slice.
    fn take_until(&mut self, pat: &str) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while !self.at_end() {
            if self.starts_with(pat) {
                let s = &self.input[start..self.pos];
                return std::str::from_utf8(s).map_err(|_| XmlError {
                    message: "invalid UTF-8".into(),
                    line: self.line,
                    column: self.col,
                });
            }
            self.bump();
        }
        self.err(format!("unexpected end of input looking for `{pat}`"))
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => {
                self.bump();
            }
            _ => return self.err("expected a name"),
        }
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.bump();
        }
        std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| XmlError {
            message: "name is not valid UTF-8".into(),
            line: self.line,
            column: self.col,
        })
    }

    fn name_limited(&mut self, limits: &ParseLimits) -> Result<&'a str, XmlError> {
        let name = self.name()?;
        if name.len() > limits.max_name_len {
            return Err(XmlError {
                message: format!(
                    "name of {} bytes exceeds the {}-byte limit",
                    name.len(),
                    limits.max_name_len
                ),
                line: self.line,
                column: self.col,
            });
        }
        Ok(name)
    }
}

fn decode_entities(
    raw: &str,
    cur: &Cursor<'_>,
    limits: &ParseLimits,
    expansions: &mut u64,
) -> Result<String, XmlError> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        *expansions += 1;
        if *expansions > limits.max_entity_expansions {
            return Err(XmlError {
                message: format!(
                    "more than {} entity references in the document",
                    limits.max_entity_expansions
                ),
                line: cur.line,
                column: cur.col,
            });
        }
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest.find(';').ok_or_else(|| XmlError {
            message: "unterminated entity reference".into(),
            line: cur.line,
            column: cur.col,
        })?;
        let ent = &rest[1..semi];
        match ent {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let cp = u32::from_str_radix(&ent[2..], 16).map_err(|_| XmlError {
                    message: format!("bad character reference `&{ent};`"),
                    line: cur.line,
                    column: cur.col,
                })?;
                out.push(char::from_u32(cp).ok_or_else(|| XmlError {
                    message: format!("invalid code point in `&{ent};`"),
                    line: cur.line,
                    column: cur.col,
                })?);
            }
            _ if ent.starts_with('#') => {
                let cp: u32 = ent[1..].parse().map_err(|_| XmlError {
                    message: format!("bad character reference `&{ent};`"),
                    line: cur.line,
                    column: cur.col,
                })?;
                out.push(char::from_u32(cp).ok_or_else(|| XmlError {
                    message: format!("invalid code point in `&{ent};`"),
                    line: cur.line,
                    column: cur.col,
                })?);
            }
            _ => {
                return Err(XmlError {
                    message: format!("unknown entity `&{ent};`"),
                    line: cur.line,
                    column: cur.col,
                })
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Parse an XML document string into an in-memory [`ArenaStore`] with
/// default [`ParseLimits`].
pub fn parse_document(input: &str) -> Result<ArenaStore, XmlError> {
    parse_document_with_limits(input, &ParseLimits::default())
}

/// [`parse_document`] with explicit bounds on document shape. Exceeding a
/// bound is a typed [`XmlError`], not a panic or a stack overflow (the
/// parser itself is iterative; the depth bound protects the recursive
/// consumers of the resulting tree).
pub fn parse_document_with_limits(
    input: &str,
    limits: &ParseLimits,
) -> Result<ArenaStore, XmlError> {
    let mut cur = Cursor::new(input);
    let mut builder = ArenaBuilder::new();
    let mut open: Vec<String> = Vec::new();
    // The attribute names of the start tag being read.
    let mut attr_names: Vec<&str> = Vec::new();
    let mut seen_root = false;
    let mut expansions = 0u64;

    // Prolog: XML declaration, misc, DOCTYPE.
    cur.skip_ws();
    if cur.starts_with("<?xml") {
        cur.take_until("?>")?;
        cur.expect("?>")?;
    }

    loop {
        if open.is_empty() {
            cur.skip_ws();
        }
        if cur.at_end() {
            break;
        }
        if cur.starts_with("<!--") {
            cur.bump_n(4);
            let content = cur.take_until("-->")?.to_owned();
            cur.expect("-->")?;
            if !open.is_empty() {
                builder.comment(&content);
            }
            continue;
        }
        if cur.starts_with("<![CDATA[") {
            if open.is_empty() {
                return cur.err("CDATA outside the root element");
            }
            cur.bump_n(9);
            let content = cur.take_until("]]>")?.to_owned();
            cur.expect("]]>")?;
            builder.text(&content);
            continue;
        }
        if cur.starts_with("<!DOCTYPE") {
            if !open.is_empty() {
                return cur.err("DOCTYPE inside content");
            }
            cur.bump_n(9);
            // Skip to the closing '>' at bracket depth 0, honouring an
            // internal subset in [...].
            let mut brackets = 0i32;
            loop {
                match cur.bump() {
                    Some(b'[') => brackets += 1,
                    Some(b']') => brackets -= 1,
                    Some(b'>') if brackets == 0 => break,
                    Some(_) => {}
                    None => return cur.err("unterminated DOCTYPE"),
                }
            }
            continue;
        }
        if cur.starts_with("<?") {
            cur.bump_n(2);
            let target = cur.name_limited(limits)?.to_owned();
            let body = cur.take_until("?>")?.trim_start().to_owned();
            cur.expect("?>")?;
            if !open.is_empty() {
                builder.processing_instruction(&target, &body);
            }
            continue;
        }
        if cur.starts_with("</") {
            cur.bump_n(2);
            let name = cur.name_limited(limits)?.to_owned();
            cur.skip_ws();
            cur.expect(">")?;
            match open.pop() {
                None => return cur.err(format!("unexpected closing tag </{name}>")),
                Some(o) if o != name => {
                    return cur.err(format!("mismatched closing tag </{name}>, expected </{o}>"))
                }
                Some(_) => {}
            }
            builder.end_element();
            continue;
        }
        if cur.starts_with("<") {
            cur.bump();
            if open.is_empty() && seen_root {
                return cur.err("multiple root elements");
            }
            let name = cur.name_limited(limits)?.to_owned();
            if open.len() >= limits.max_depth {
                return cur.err(format!(
                    "element nesting deeper than the {}-level limit",
                    limits.max_depth
                ));
            }
            builder.start_element(&name);
            if open.is_empty() {
                seen_root = true;
            }
            open.push(name);
            // Attributes.
            let mut attr_count = 0usize;
            attr_names.clear();
            loop {
                cur.skip_ws();
                match cur.peek() {
                    Some(b'>') => {
                        cur.bump();
                        break;
                    }
                    Some(b'/') => {
                        cur.bump();
                        cur.expect(">")?;
                        builder.end_element();
                        open.pop();
                        break;
                    }
                    Some(b) if Cursor::is_name_start(b) => {
                        attr_count += 1;
                        if attr_count > limits.max_attrs {
                            return cur.err(format!(
                                "more than {} attributes on one element",
                                limits.max_attrs
                            ));
                        }
                        let aname = cur.name_limited(limits)?;
                        // XML 1.0 §3.1 (WFC: Unique Att Spec). Steps that
                        // look an attribute up by name rely on it.
                        if attr_names.contains(&aname) {
                            return cur.err(format!("duplicate attribute `{aname}`"));
                        }
                        cur.skip_ws();
                        cur.expect("=")?;
                        cur.skip_ws();
                        let quote = match cur.bump() {
                            Some(q @ (b'"' | b'\'')) => q,
                            _ => return cur.err("expected quoted attribute value"),
                        };
                        let raw =
                            cur.take_until(if quote == b'"' { "\"" } else { "'" })?.to_owned();
                        cur.bump(); // closing quote
                        let value = decode_entities(&raw, &cur, limits, &mut expansions)?;
                        // A namespace declaration is not an attribute
                        // (XPath 1.0 §5.3); it still counts toward the limit.
                        if aname != "xmlns" && !aname.starts_with("xmlns:") {
                            builder.attribute(aname, &value);
                        }
                        attr_names.push(aname);
                    }
                    _ => return cur.err("malformed start tag"),
                }
            }
            continue;
        }
        // Character data.
        if open.is_empty() {
            return cur.err("character data outside the root element");
        }
        let start = cur.pos;
        while !cur.at_end() && cur.peek() != Some(b'<') {
            cur.bump();
        }
        let raw = std::str::from_utf8(&cur.input[start..cur.pos]).map_err(|_| XmlError {
            message: "invalid UTF-8".into(),
            line: cur.line,
            column: cur.col,
        })?;
        let text = decode_entities(raw, &cur, limits, &mut expansions)?;
        builder.text(&text);
    }

    if !open.is_empty() {
        return cur.err("unexpected end of input: unclosed element");
    }
    if !seen_root {
        return cur.err("no root element");
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;
    use crate::store::XmlStore;

    #[test]
    fn basic_document() {
        let s = parse_document("<a x='1'><b>hi</b><c/></a>").unwrap();
        let a = s.first_child(s.root()).unwrap();
        assert_eq!(s.node_name(a), "a");
        assert_eq!(s.attribute_value(a, "x").as_deref(), Some("1"));
        let b = s.first_child(a).unwrap();
        assert_eq!(s.string_value(b), "hi");
        let c = s.next_sibling(b).unwrap();
        assert_eq!(s.node_name(c), "c");
        assert_eq!(s.first_child(c), None);
    }

    #[test]
    fn declaration_doctype_comments_pis() {
        let doc = r#"<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE dblp SYSTEM "dblp.dtd" [ <!ENTITY x "y"> ]>
<!-- leading comment -->
<r><?target data?><!-- inner --><x/></r>"#;
        let s = parse_document(doc).unwrap();
        let r = s.first_child(s.root()).unwrap();
        let pi = s.first_child(r).unwrap();
        assert_eq!(s.kind(pi), NodeKind::ProcessingInstruction);
        assert_eq!(s.node_name(pi), "target");
        assert_eq!(s.value(pi).as_deref(), Some("data"));
        let comment = s.next_sibling(pi).unwrap();
        assert_eq!(s.kind(comment), NodeKind::Comment);
        assert_eq!(s.value(comment).as_deref(), Some(" inner "));
    }

    #[test]
    fn entities_and_char_refs() {
        let s = parse_document("<a t='&lt;&#65;&#x42;&gt;'>&amp;&apos;&quot;</a>").unwrap();
        let a = s.first_child(s.root()).unwrap();
        assert_eq!(s.attribute_value(a, "t").as_deref(), Some("<AB>"));
        assert_eq!(s.string_value(a), "&'\"");
    }

    #[test]
    fn cdata() {
        let s = parse_document("<a><![CDATA[<not-a-tag> & raw]]></a>").unwrap();
        let a = s.first_child(s.root()).unwrap();
        assert_eq!(s.string_value(a), "<not-a-tag> & raw");
    }

    #[test]
    fn errors_positioned() {
        let err = parse_document("<a>\n  <b>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unclosed") || err.message.contains("end of input"));
        assert!(parse_document("").is_err());
        assert!(parse_document("<a></b>").is_err());
        assert!(parse_document("<a/><b/>").is_err());
        assert!(parse_document("text only").is_err());
        assert!(parse_document("<a x=1/>").is_err());
        assert!(parse_document("<a>&bogus;</a>").is_err());
    }

    #[test]
    fn mixed_content_order() {
        let s = parse_document("<a>one<b/>two<c/>three</a>").unwrap();
        let a = s.first_child(s.root()).unwrap();
        let kinds: Vec<NodeKind> = {
            let mut v = Vec::new();
            let mut c = s.first_child(a);
            while let Some(n) = c {
                v.push(s.kind(n));
                c = s.next_sibling(n);
            }
            v
        };
        assert_eq!(
            kinds,
            [
                NodeKind::Text,
                NodeKind::Element,
                NodeKind::Text,
                NodeKind::Element,
                NodeKind::Text
            ]
        );
        assert_eq!(s.string_value(a), "onetwothree");
    }

    #[test]
    fn depth_limit_is_a_typed_error() {
        let limits = ParseLimits { max_depth: 8, ..ParseLimits::default() };
        let ok = format!("{}x{}", "<a>".repeat(8), "</a>".repeat(8));
        assert!(parse_document_with_limits(&ok, &limits).is_ok());
        let deep = format!("{}x{}", "<a>".repeat(9), "</a>".repeat(9));
        let err = parse_document_with_limits(&deep, &limits).unwrap_err();
        assert!(err.message.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn name_length_limit() {
        let limits = ParseLimits { max_name_len: 4, ..ParseLimits::default() };
        assert!(parse_document_with_limits("<abcd/>", &limits).is_ok());
        let err = parse_document_with_limits("<abcde/>", &limits).unwrap_err();
        assert!(err.message.contains("byte limit"), "{err}");
        let err = parse_document_with_limits("<a toolong='v'/>", &limits).unwrap_err();
        assert!(err.message.contains("byte limit"), "{err}");
    }

    #[test]
    fn attribute_count_limit() {
        let limits = ParseLimits { max_attrs: 2, ..ParseLimits::default() };
        assert!(parse_document_with_limits("<a x='1' y='2'/>", &limits).is_ok());
        let err = parse_document_with_limits("<a x='1' y='2' z='3'/>", &limits).unwrap_err();
        assert!(err.message.contains("attributes"), "{err}");
        // Namespace declarations are no attributes, but still count.
        let err = parse_document_with_limits("<a xmlns='u' xmlns:p='v' x='1'/>", &limits);
        assert!(err.unwrap_err().message.contains("attributes"));
    }

    #[test]
    fn duplicate_attributes_are_rejected() {
        for doc in [
            "<a x='1' x='2'/>",
            "<r><a id='1' b='' id='2'></a></r>",
            "<a xmlns='u' xmlns='v'/>",
        ] {
            let err = parse_document(doc).unwrap_err();
            assert!(err.message.contains("duplicate attribute"), "{doc}: {err}");
        }
        // The same name on two elements, or with another prefix, is fine.
        assert!(parse_document("<r a='1'><s a='2' p:a='3'/></r>").is_ok());
    }

    #[test]
    fn entity_expansion_limit() {
        let limits = ParseLimits { max_entity_expansions: 3, ..ParseLimits::default() };
        assert!(parse_document_with_limits("<a>&amp;&lt;&gt;</a>", &limits).is_ok());
        let err = parse_document_with_limits("<a>&amp;&lt;&gt;&amp;</a>", &limits).unwrap_err();
        assert!(err.message.contains("entity references"), "{err}");
    }

    #[test]
    fn whitespace_only_text_preserved() {
        // XPath keeps whitespace-only text nodes (no stripping here).
        let s = parse_document("<a> <b/> </a>").unwrap();
        let a = s.first_child(s.root()).unwrap();
        assert_eq!(s.kind(s.first_child(a).unwrap()), NodeKind::Text);
        assert_eq!(s.string_value(a), "  ");
    }
}
