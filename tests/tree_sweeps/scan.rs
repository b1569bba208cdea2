//! The one token scanner behind the tree sweeps.
//!
//! It is the only place that strips comments, strings and char literals,
//! cuts `#[cfg(test)] mod` blocks, tracks `impl` / `trait` / `fn` nesting
//! and binds `.field` reads, `.method(` calls and destructuring patterns to
//! a receiver type wherever the text shows it. It is a scanner, not a
//! parser: it knows Rust's lexical grammar and the shapes of items, not
//! types, so a receiver it cannot see is left unbound and each rule says
//! what an unbound use counts for.

use std::collections::HashMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Ident,
    Lifetime,
    /// A string literal; its text is the literal as written, prefix and
    /// quotes included, so it never equals an identifier or a punctuation.
    Str,
    /// A char or byte literal; its text is always `''`.
    Char,
    Num,
    Punct,
}

#[derive(Clone, Copy, Debug)]
pub struct Tok {
    pub kind: Kind,
    pub text: &'static str,
    pub line: u32,
}

impl Tok {
    pub fn is(&self, text: &str) -> bool {
        self.text == text && self.kind != Kind::Str
    }

    fn ident(&self) -> Option<&'static str> {
        (self.kind == Kind::Ident).then_some(self.text)
    }
}

const PUNCTS: [&str; 22] = [
    "<<=", ">>=", "...", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=", "&&", "||", "..",
];

/// Rust source as tokens, comments dropped, char literals blanked.
pub fn lex(src: &'static str) -> Vec<Tok> {
    let b = src.as_bytes();
    let (mut i, mut line, mut out) = (0, 1u32, Vec::new());
    let ident_char = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    while i < b.len() {
        let c = b[i];
        let start_line = line;
        let push = |out: &mut Vec<Tok>, kind, text| out.push(Tok { kind, text, line: start_line });
        if c == b'\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if b[i..].starts_with(b"//") {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if b[i..].starts_with(b"/*") {
            let mut depth = 0;
            while i < b.len() {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    line += (b[i] == b'\n') as u32;
                    i += 1;
                }
            }
        } else if let Some(len) = raw_string_len(&b[i..]) {
            line += b[i..i + len].iter().filter(|&&c| c == b'\n').count() as u32;
            push(&mut out, Kind::Str, &src[i..i + len]);
            i += len;
        } else if c == b'"' || (c == b'b' || c == b'c') && b.get(i + 1) == Some(&b'"') {
            let start = i;
            i += if c == b'"' { 1 } else { 2 };
            while i < b.len() && b[i] != b'"' {
                line += (b[i] == b'\n') as u32;
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i = (i + 1).min(b.len());
            push(&mut out, Kind::Str, &src[start..i]);
        } else if c == b'\'' || c == b'b' && b.get(i + 1) == Some(&b'\'') {
            let q = i + (c == b'b') as usize;
            if let Some(len) = char_literal_len(&src[q..]) {
                i = q + len;
                push(&mut out, Kind::Char, "''");
            } else {
                let mut j = q + 1;
                while j < b.len() && ident_char(b[j]) {
                    j += 1;
                }
                push(&mut out, Kind::Lifetime, &src[q..j]);
                i = j;
            }
        } else if c.is_ascii_digit() {
            let mut j = i;
            loop {
                while j < b.len() && ident_char(b[j]) {
                    j += 1;
                }
                // A signed exponent or a fraction continues the literal.
                let exp = matches!(b[j - 1], b'e' | b'E') && !src[i..j].starts_with("0x");
                let joins = if exp {
                    matches!(b.get(j), Some(b'+' | b'-' | b'.'))
                } else {
                    b.get(j) == Some(&b'.')
                };
                if !(joins && b.get(j + 1).is_some_and(u8::is_ascii_digit)) {
                    break;
                }
                j += 1;
            }
            push(&mut out, Kind::Num, &src[i..j]);
            i = j;
        } else if ident_char(c) || c >= 0x80 && src[i..].starts_with(char::is_alphabetic) {
            if b[i..].starts_with(b"r#") && b.get(i + 2).is_some_and(|&c| ident_char(c)) {
                i += 2;
            }
            let mut j = i;
            while j < b.len()
                && (ident_char(b[j]) || b[j] >= 0x80 && src[j..].starts_with(char::is_alphabetic))
            {
                j += src[j..].chars().next().map_or(1, char::len_utf8);
            }
            push(&mut out, Kind::Ident, &src[i..j]);
            i = j;
        } else {
            let len = PUNCTS
                .iter()
                .find(|p| b[i..].starts_with(p.as_bytes()))
                .map_or_else(|| src[i..].chars().next().map_or(1, char::len_utf8), |p| p.len());
            push(&mut out, Kind::Punct, &src[i..i + len]);
            i += len;
        }
    }
    out
}

/// Byte length of the raw (byte) string literal `b` starts with, if any.
fn raw_string_len(b: &[u8]) -> Option<usize> {
    let mut i = match b {
        [b'r', ..] => 1,
        [b'b' | b'c', b'r', ..] => 2,
        _ => return None,
    };
    let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
    i += hashes;
    if b.get(i) != Some(&b'"') {
        return None;
    }
    let close: Vec<u8> = std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
    let end = b[i + 1..].windows(close.len()).position(|w| w == close)?;
    Some(i + 1 + end + close.len())
}

/// Byte length of the char literal `s` starts with (at its `'`), or
/// `None` when the quote opens a lifetime or a label.
fn char_literal_len(s: &str) -> Option<usize> {
    let mut chars = s.char_indices().skip(1);
    match chars.next()? {
        (_, '\\') => s[2..].find('\'').map(|k| k + 3),
        (_, _) => match chars.next() {
            Some((k, '\'')) => Some(k + 1),
            _ => None,
        },
    }
}

/// The tokens of `toks` outside every `#[cfg(test)] mod name { … }` (its
/// attributes, header and body). A `#[cfg(test)]` on any other item stays.
pub fn without_test_mods(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if let Some(end) = test_mod_end(toks, i) {
            i = end;
        } else {
            out.push(toks[i]);
            i += 1;
        }
    }
    out
}

/// Where the `#[cfg(test)] mod … { … }` starting at `i` ends, if one does.
fn test_mod_end(toks: &[Tok], i: usize) -> Option<usize> {
    let cfg_test = ["#", "[", "cfg", "(", "test", ")", "]"];
    if toks.len() < i + 7 || !cfg_test.iter().zip(&toks[i..]).all(|(p, t)| t.is(p)) {
        return None;
    }
    let mut j = i + 7;
    while toks.get(j).is_some_and(|t| t.is("#")) {
        j = close_of(toks, j + 1)? + 1;
    }
    if toks.get(j).is_some_and(|t| t.is("pub")) {
        j += 1;
        if toks.get(j).is_some_and(|t| t.is("(")) {
            j = close_of(toks, j)? + 1;
        }
    }
    (toks.get(j)?.is("mod") && toks.get(j + 2)?.is("{"))
        .then(|| close_of(toks, j + 2).map(|k| k + 1))?
}

/// Index of the bracket closing the one at `open` (`(`, `[` or `{`).
pub fn close_of(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind != Kind::Punct {
            continue;
        }
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// A receiver as far as the text shows it. Fields and returns are
/// resolved against the whole tree's structs and signatures ([`Index`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Recv {
    Unknown,
    Ty(&'static str),
    /// A field of another receiver.
    Field(Box<Recv>, &'static str),
    /// What a method of another receiver returns (`true`: through `?`).
    Ret(Box<Recv>, &'static str, bool),
    /// What `Type::f(..)` (`Some(Type)`, `Some("?")` behind generics) or a
    /// free `f(..)` (`None`) returns (`true`: through `?`).
    FnRet(Option<&'static str>, &'static str, bool),
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RefKind {
    /// `Q::name`, the last segment of a path: `Some(type)` for an upper-case
    /// (or `Self`) qualifier, `Some("?")` when generics or a cast sit before
    /// the `::`, `None` for a module path.
    Path(Option<&'static str>),
    /// `name(` that is neither a method call nor a path.
    Call,
    /// `.name(`, a method call.
    Method,
    /// `.name` read: not a call, not an assignment target.
    Read,
    /// `name` bound by a destructuring pattern `Type { name, .. }`.
    Pattern,
}

#[derive(Clone, Debug)]
pub struct Ref {
    pub kind: RefKind,
    pub name: &'static str,
    /// The receiver of a `Method`, `Read` or `Pattern`.
    pub recv: Recv,
    /// The innermost enclosing function of that same name, as an index
    /// into [`Scan::fns`]: a use inside the function it names.
    pub within: Option<usize>,
    /// The self type of the enclosing `impl` (or the name of the enclosing
    /// `trait`).
    pub impl_ty: Option<&'static str>,
    /// The trait the enclosing `impl` implements.
    pub impl_trait: Option<&'static str>,
}

#[derive(Clone, Debug)]
pub struct FnDef {
    pub name: &'static str,
    /// `pub` or `pub(crate)`, optionally `const` / `unsafe` / `async`.
    pub public: bool,
    /// The self type of the enclosing `impl`, or the enclosing trait.
    pub ty: Option<&'static str>,
    /// Token range of the signature, `fn` up to its body or `;`.
    pub sig: (usize, usize),
    /// The type it returns, and the type inside a returned `Result` /
    /// `Option` (what `?` yields).
    pub ret: Option<&'static str>,
    pub ret_ok: Option<&'static str>,
    /// Every upper-case name in the return type (`Self` resolved).
    pub ret_names: Vec<&'static str>,
}

#[derive(Clone, Debug)]
pub struct Field {
    pub name: &'static str,
    /// `pub` or `pub(crate)`.
    pub public: bool,
    /// Bare `pub`.
    pub plain_pub: bool,
    /// The type's name as the text shows it (`Box`/`Arc`/`Rc` and
    /// references looked through), when it is a plain path.
    pub ty: Option<&'static str>,
}

#[derive(Clone, Debug)]
pub struct StructDef {
    pub name: &'static str,
    /// `pub` or `pub(crate)`.
    pub public: bool,
    /// Bare `pub`.
    pub plain_pub: bool,
    pub fields: Vec<Field>,
}

/// One file, scanned: its live tokens (outside the test modules) and the
/// items and uses found in them.
#[derive(Debug, Default)]
pub struct Scan {
    pub toks: Vec<Tok>,
    pub fns: Vec<FnDef>,
    pub structs: Vec<StructDef>,
    pub refs: Vec<Ref>,
    /// For each token, the innermost enclosing function (index into `fns`).
    pub fn_at: Vec<Option<usize>>,
}

pub fn scan(src: &'static str) -> Scan {
    let toks = without_test_mods(&lex(src));
    Walker::default().walk(toks)
}

#[derive(Clone, Copy)]
enum Block {
    Impl { ty: Option<&'static str>, trait_: Option<&'static str>, is_trait_def: bool },
    Fn(usize),
    Other,
}

#[derive(Default)]
struct Walker {
    /// The open braces, each with what it opened.
    blocks: Vec<Block>,
    /// Bindings in scope: name, receiver, brace depth they were made at.
    bindings: Vec<(&'static str, Recv, usize)>,
    out: Scan,
}

/// `(start, bare pub)` when the tokens just before `k` are `pub` or
/// `pub(crate)`.
fn is_vis(toks: &[Tok], k: usize) -> Option<(usize, bool)> {
    if k >= 1 && toks[k - 1].is("pub") {
        return Some((k - 1, true));
    }
    let crate_vis = ["pub", "(", "crate", ")"];
    (k >= 4 && crate_vis.iter().zip(&toks[k - 4..k]).all(|(p, t)| t.is(p))).then(|| (k - 4, false))
}

/// The type a run of type tokens names, when it is a plain path:
/// references, lifetimes and `Box` / `Arc` / `Rc` looked through.
fn type_name(ty: &[Tok]) -> Option<&'static str> {
    let mut k = 0;
    while k < ty.len() && (ty[k].is("&") || ty[k].is("mut") || ty[k].kind == Kind::Lifetime) {
        k += 1;
    }
    let mut last = None;
    while let Some(name) = ty.get(k).and_then(Tok::ident) {
        last = Some(name);
        if !ty.get(k + 1).is_some_and(|t| t.is("::")) {
            break;
        }
        k += 2;
    }
    let name = last?;
    if matches!(name, "Box" | "Arc" | "Rc") && ty.get(k + 1).is_some_and(|t| t.is("<")) {
        return type_name(&ty[k + 2..]);
    }
    name.starts_with(char::is_uppercase).then_some(name)
}

/// Index of the `{` opening the body of the item at `i`, or of the `;`
/// ending a bodiless one: the first outside `()` and `[]`.
fn body_open(toks: &[Tok], i: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(i) {
        match t.text {
            _ if t.kind != Kind::Punct => {}
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" | ";" if depth == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// Index of the bracket opening the one at `close`.
fn open_of(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    for k in (0..=close).rev() {
        let t = toks[k];
        if t.kind != Kind::Punct {
            continue;
        }
        match t.text {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Split `toks[from..to]` at top-level commas (outside `()`, `[]`, `{}`, `<>`).
fn split_commas(toks: &[Tok], from: usize, to: usize) -> Vec<(usize, usize)> {
    let (mut parts, mut depth, mut start) = (Vec::new(), 0i32, from);
    for (k, t) in toks.iter().enumerate().take(to).skip(from) {
        match t.text {
            _ if t.kind != Kind::Punct => {}
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth == 0 => {
                parts.push((start, k));
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < to {
        parts.push((start, to));
    }
    parts
}

/// The names a parameter `pat[: Type]` in `toks[a..b]` binds, and the
/// receiver a single name binds to.
fn param(toks: &[Tok], a: usize, b: usize) -> (Vec<&'static str>, Option<&'static str>) {
    let colon = (a..b).find(|&c| toks[c].is(":"));
    let names: Vec<_> =
        toks[a..colon.unwrap_or(b)].iter().filter_map(Tok::ident).filter(|&n| n != "mut").collect();
    let ty = colon.and_then(|c| type_name(&toks[c + 1..b])).filter(|_| names.len() == 1);
    (names, ty)
}

impl Walker {
    fn impl_ctx(&self) -> (Option<&'static str>, Option<&'static str>, bool) {
        self.blocks
            .iter()
            .rev()
            .find_map(|b| match *b {
                Block::Impl { ty, trait_, is_trait_def } => Some((ty, trait_, is_trait_def)),
                _ => None,
            })
            .unwrap_or((None, None, false))
    }

    fn fn_stack(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().rev().filter_map(|b| match *b {
            Block::Fn(k) => Some(k),
            _ => None,
        })
    }

    fn bind(&mut self, name: &'static str, recv: Recv) {
        self.bindings.push((name, recv, self.blocks.len()));
    }

    fn binding(&self, name: &str) -> Recv {
        if name == "self" {
            return match self.impl_ctx() {
                (Some(ty), _, false) => Recv::Ty(ty),
                _ => Recv::Unknown,
            };
        }
        self.bindings.iter().rev().find(|b| b.0 == name).map_or(Recv::Unknown, |b| b.1.clone())
    }

    /// A type name as written, `Self` resolved to the enclosing impl.
    fn resolve(&self, name: &'static str) -> &'static str {
        match (name, self.impl_ctx()) {
            ("Self", (Some(ty), _, false)) => ty,
            _ => name,
        }
    }

    fn typed(&self, ty: Option<&'static str>) -> Recv {
        ty.map_or(Recv::Unknown, |t| Recv::Ty(self.resolve(t)))
    }

    /// The receiver the postfix chain ending just before `end` shows
    /// (`a.b`, `a.f(..)`, `T::f(..)?`, `f(..)`, `T { .. }`), and the index
    /// the chain starts at.
    fn chain(&self, toks: &[Tok], end: usize) -> (Recv, usize) {
        let unknown = (Recv::Unknown, end);
        let Some(mut k) = end.checked_sub(1) else { return unknown };
        let try_ = toks[k].is("?");
        if try_ {
            let Some(j) = k.checked_sub(1) else { return unknown };
            k = j;
        }
        let before = |k: usize| k.checked_sub(1).map(|p| toks[p]);
        if let Some(name) = toks[k].ident().filter(|_| !try_) {
            return match before(k) {
                Some(p) if p.is(".") => {
                    let (base, start) = self.chain(toks, k - 1);
                    (Recv::Field(Box::new(base), name), start)
                }
                Some(p) if p.is("::") => unknown,
                _ => (self.binding(name), k),
            };
        }
        let Some(open) = open_of(toks, k) else { return unknown };
        let Some(name) = before(open).and_then(|t| t.ident()) else { return unknown };
        let n = open - 1;
        match toks[k].text {
            ")" => match before(n) {
                Some(p) if p.is(".") => {
                    let (base, start) = self.chain(toks, n - 1);
                    (Recv::Ret(Box::new(base), name, try_), start)
                }
                Some(p) if p.is("::") => {
                    let (qual, start) = self.path_qual(toks, n);
                    (Recv::FnRet(qual, name, try_), start)
                }
                _ => (Recv::FnRet(None, name, try_), n),
            },
            "}" if !try_ && name.starts_with(char::is_uppercase) => {
                (Recv::Ty(self.resolve(name)), self.path_qual(toks, n).1)
            }
            _ => unknown,
        }
    }

    /// The qualifier of the path whose last segment is at `n` (`Some(type)`,
    /// `Some("?")` behind generics, `None` for a module path) and the index
    /// the path starts at.
    fn path_qual(&self, toks: &[Tok], n: usize) -> (Option<&'static str>, usize) {
        let mut start = n;
        while start >= 2 && toks[start - 1].is("::") && toks[start - 2].kind == Kind::Ident {
            start -= 2;
        }
        let qual = match n.checked_sub(2).map(|q| toks[q]) {
            Some(q) if q.kind == Kind::Ident => {
                Some(self.resolve(q.text)).filter(|q| q.starts_with(char::is_uppercase))
            }
            Some(q) if toks[n - 1].is("::") => Some("?").filter(|_| q.is(">")),
            _ => None,
        };
        (qual, start)
    }

    fn push_ref(&mut self, toks: &[Tok], i: usize, kind: RefKind, recv: Recv) {
        let name = toks[i].text;
        let within = self.fn_stack().find(|&k| self.out.fns[k].name == name);
        let (impl_ty, impl_trait, _) = self.impl_ctx();
        self.out.refs.push(Ref { kind, name, recv, within, impl_ty, impl_trait });
    }

    fn walk(mut self, toks: Vec<Tok>) -> Scan {
        let n = toks.len();
        // The item whose body the brace at the given index opens.
        let mut pending: Option<(usize, Block)> = None;
        self.out.fn_at = vec![None; n];
        for i in 0..n {
            let t = toks[i];
            let here = self.fn_stack().next();
            self.out.fn_at[i] = here;
            let prev = i.checked_sub(1).map(|p| toks[p]);
            let named = toks.get(i + 1).and_then(Tok::ident);
            let in_fn = here.is_some();
            match (t.kind, t.text) {
                (Kind::Punct, "{") => {
                    let block = match pending.take() {
                        Some((at, block)) if at == i => block,
                        _ => Block::Other,
                    };
                    if let Some(end) = self.pattern_end(&toks, i) {
                        self.pattern(&toks, i, end);
                    }
                    self.blocks.push(block);
                }
                (Kind::Punct, "}") => {
                    self.blocks.pop();
                    let depth = self.blocks.len();
                    self.bindings.retain(|b| b.2 <= depth);
                }
                (Kind::Ident, "impl")
                    if prev.is_none_or(|p| ["}", ";", "{", "]", "unsafe"].contains(&p.text)) =>
                {
                    pending = self.impl_header(&toks, i);
                }
                (Kind::Ident, "trait") if named.is_some() => {
                    let block = Block::Impl { ty: named, trait_: None, is_trait_def: true };
                    pending = body_open(&toks, i).map(|at| (at, block));
                }
                (Kind::Ident, "struct") if named.is_some() => self.struct_def(&toks, i),
                (Kind::Ident, "fn") if named.is_some() => pending = self.fn_def(&toks, i),
                (Kind::Ident, "let") => self.let_binding(&toks, i),
                (Kind::Ident, "for") if in_fn && !toks.get(i + 1).is_some_and(|t| t.is("<")) => {
                    // `for pat in`: every name the pattern binds is unknown.
                    for k in (i + 1..n).take_while(|&k| !toks[k].is("in")) {
                        if let Some(name) = toks[k].ident() {
                            self.bind(name, Recv::Unknown);
                        }
                    }
                }
                (Kind::Punct, "|") if in_fn => self.closure_params(&toks, i),
                (Kind::Ident, name) => self.ident_use(&toks, i, name),
                _ => {}
            }
        }
        self.out.toks = toks;
        self.out
    }

    /// A use of the identifier at `i`, if it is one.
    fn ident_use(&mut self, toks: &[Tok], i: usize, name: &'static str) {
        let punct = |k: usize| toks.get(k).filter(|t| t.kind == Kind::Punct).map_or("", |t| t.text);
        let prev = i.checked_sub(1).map_or("", punct);
        if i > 0 && toks[i - 1].is("fn") || punct(i + 1) == "!" {
            return;
        }
        let mut after = i + 1;
        if punct(after) == "::" && punct(after + 1) == "<" {
            // A turbofish: skip to its closing `>`.
            let mut depth = 0;
            after += 1;
            while after < toks.len() {
                depth += (punct(after) == "<") as i32 - (punct(after) == ">") as i32;
                after += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        let call = punct(after) == "(";
        if prev == "::" && punct(i + 1) != "::" {
            let qual = match i.checked_sub(2).map(|k| toks[k]) {
                Some(q) if q.kind == Kind::Ident => {
                    Some(self.resolve(q.text)).filter(|q| q.starts_with(char::is_uppercase))
                }
                _ => Some("?"),
            };
            self.push_ref(toks, i, RefKind::Path(qual), Recv::Unknown);
        } else if prev == "." {
            let recv = self.chain(toks, i - 1).0;
            let assigned = ["=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>="]
                .contains(&punct(i + 1));
            if call {
                self.push_ref(toks, i, RefKind::Method, recv);
            } else if !assigned
                && punct(i + 1) != "::"
                && name.starts_with(|c: char| c.is_lowercase() || c == '_')
            {
                self.push_ref(toks, i, RefKind::Read, recv);
            }
        } else if call && prev != "::" {
            self.push_ref(toks, i, RefKind::Call, Recv::Unknown);
        }
    }

    /// Parse `impl<..> [Trait for] Type<..> [where ..]` from `i`: the block
    /// and the index of the `{` that opens it.
    fn impl_header(&mut self, toks: &[Tok], i: usize) -> Option<(usize, Block)> {
        let body = body_open(toks, i)?;
        let mut depth = 0;
        let (mut segs, mut for_at) = (Vec::new(), None);
        for t in &toks[i + 1..body] {
            match t.text {
                "<" => depth += 1,
                ">" => depth -= 1,
                "where" if depth == 0 => break,
                "for" if depth == 0 => for_at = Some(segs.len()),
                "dyn" | "mut" => {}
                _ if depth == 0 && t.kind == Kind::Ident => segs.push(t.text),
                _ => {}
            }
        }
        // `segs` holds the top-level path segments: the last one before
        // `for` names the trait, the last one overall the self type.
        let trait_ = for_at.and_then(|f| f.checked_sub(1)).map(|f| segs[f]);
        let block = Block::Impl { ty: segs.last().copied(), trait_, is_trait_def: false };
        toks[body].is("{").then_some((body, block))
    }

    /// Record the `fn` at `i` (its name at `i + 1`) and bind its
    /// parameters; returns where its body opens, if it has one.
    fn fn_def(&mut self, toks: &[Tok], i: usize) -> Option<(usize, Block)> {
        let mut v = i;
        while v > 0
            && (["const", "unsafe", "async", "extern"].contains(&toks[v - 1].text)
                || toks[v - 1].kind == Kind::Str)
        {
            v -= 1;
        }
        let public = is_vis(toks, v).is_some();
        let ty = self.impl_ctx().0;
        let body = body_open(toks, i);
        let sig = (v, body.map_or(toks.len(), |b| b + toks[b].is(";") as usize));
        let arrow = (i..sig.1).find(|&k| toks[k].is("->"));
        let ret_toks = arrow.map_or(&[][..], |a| {
            let end = (a..sig.1)
                .find(|&k| toks[k].is("where") || toks[k].is("{") || toks[k].is(";"))
                .unwrap_or(sig.1);
            &toks[a + 1..end]
        });
        let ret = type_name(ret_toks).map(|t| self.resolve(t));
        let ret_ok = ret
            .filter(|r| matches!(*r, "Result" | "Option"))
            .and_then(|_| ret_toks.iter().position(|t| t.is("<")))
            .and_then(|lt| type_name(&ret_toks[lt + 1..]))
            .map(|t| self.resolve(t));
        let ret_names = ret_toks
            .iter()
            .filter_map(Tok::ident)
            .filter(|t| t.starts_with(char::is_uppercase))
            .map(|t| self.resolve(t))
            .collect();
        self.out.fns.push(FnDef {
            name: toks[i + 1].text,
            public,
            ty,
            sig,
            ret,
            ret_ok,
            ret_names,
        });
        let id = self.out.fns.len() - 1;
        let body = body.filter(|&b| toks[b].is("{"))?;
        // The parameter list: the first `(` after the name and its generics.
        let mut p = i + 2;
        if toks[p].is("<") {
            let mut depth = 0;
            while p < body {
                depth += toks[p].is("<") as i32 - toks[p].is(">") as i32;
                p += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if let Some(close) = toks[p].is("(").then(|| close_of(toks, p)).flatten() {
            // Parameters bind at the depth of the body about to open.
            let depth = self.blocks.len() + 1;
            for (a, b) in split_commas(toks, p + 1, close) {
                let (names, ty) = param(toks, a, b);
                let recv = self.typed(ty);
                for name in names.into_iter().filter(|&n| n != "self") {
                    self.bindings.push((name, recv.clone(), depth));
                }
            }
        }
        Some((body, Block::Fn(id)))
    }

    /// Record the struct at `i` with its named fields.
    fn struct_def(&mut self, toks: &[Tok], i: usize) {
        let vis = is_vis(toks, i);
        let mut def = StructDef {
            name: toks[i + 1].text,
            public: vis.is_some(),
            plain_pub: vis.is_some_and(|v| v.1),
            fields: Vec::new(),
        };
        let open = (i + 2..toks.len())
            .find(|&k| ["{", ";", "("].contains(&toks[k].text) && toks[k].kind == Kind::Punct);
        if let Some(open) = open.filter(|&k| toks[k].is("{")) {
            let close = close_of(toks, open).unwrap_or(toks.len());
            for (a, b) in split_commas(toks, open + 1, close) {
                let mut a = a;
                while a < b && toks[a].is("#") {
                    a = close_of(toks, a + 1).map_or(b, |c| c + 1);
                }
                let Some(colon) = (a..b).find(|&c| toks[c].is(":")) else { continue };
                let fvis = is_vis(toks, colon - 1).filter(|v| v.0 == a);
                def.fields.push(Field {
                    name: toks[colon - 1].text,
                    public: fvis.is_some(),
                    plain_pub: fvis.is_some_and(|v| v.1),
                    ty: type_name(&toks[colon + 1..b]),
                });
            }
        }
        self.out.structs.push(def);
    }

    /// `let pat [: Type] [= init]`: bind the pattern's names, a single name
    /// to the type its annotation or initialiser shows.
    fn let_binding(&mut self, toks: &[Tok], i: usize) {
        let k = i + 1 + toks.get(i + 1).is_some_and(|t| t.is("mut")) as usize;
        let single = toks
            .get(k)
            .and_then(Tok::ident)
            .filter(|_| toks.get(k + 1).is_some_and(|t| t.is(":") || t.is("=") || t.is(";")));
        let Some(name) = single else {
            // A pattern: its names are bound to what the text cannot show.
            let mut depth = 0i32;
            for (j, t) in toks.iter().enumerate().skip(k) {
                if depth == 0 && (t.is("=") || t.is(";")) {
                    break;
                }
                depth += ["(", "[", "{"].contains(&t.text) as i32
                    - [")", "]", "}"].contains(&t.text) as i32;
                let after = toks.get(j + 1).map_or("", |t| t.text);
                if t.kind == Kind::Ident
                    && t.text.starts_with(char::is_lowercase)
                    && !["::", "(", "{"].contains(&after)
                {
                    self.bind(t.text, Recv::Unknown);
                }
            }
            return;
        };
        let recv = if toks[k + 1].is(":") {
            let end =
                (k + 2..toks.len()).find(|&j| toks[j].is("=") || toks[j].is(";")).unwrap_or(k + 2);
            self.typed(type_name(&toks[k + 2..end]))
        } else if toks[k + 1].is("=") {
            self.init_type(toks, k + 2)
        } else {
            Recv::Unknown
        };
        self.bind(name, recv);
    }

    /// The receiver an initialiser at `k` shows: one postfix chain up to
    /// the `;` (behind `&` / `&mut`).
    fn init_type(&self, toks: &[Tok], k: usize) -> Recv {
        let Some(end) = body_open(toks, k).filter(|&e| toks[e].is(";")) else {
            return Recv::Unknown;
        };
        let start = k + toks[k].is("&") as usize;
        let start = start + toks.get(start).is_some_and(|t| t.is("mut")) as usize;
        match self.chain(toks, end) {
            (recv, s) if s == start => recv,
            _ => Recv::Unknown,
        }
    }

    /// Closure parameters `|a, b: &T|` at `i`: bound for the rest of the
    /// enclosing block (a closure without braces opens none).
    fn closure_params(&mut self, toks: &[Tok], i: usize) {
        let opens = ["(", ",", "=", "move", "{", ";", "=>", "return"].contains(&toks[i - 1].text);
        let Some(end) = (i + 1..toks.len()).find(|&k| toks[k].is("|")).filter(|_| opens) else {
            return;
        };
        for (a, b) in split_commas(toks, i + 1, end) {
            let (names, ty) = param(toks, a, b);
            let recv = self.typed(ty);
            for name in names {
                self.bind(name, recv.clone());
            }
        }
    }

    /// When the `{` at `open` closes a destructuring pattern, the index of
    /// its `}`: `let Type {`, `for Type { .. } in`, or, where a pattern can
    /// start, `Type { .. }` before `=>`, `if`, `|` or `=`.
    fn pattern_end(&self, toks: &[Tok], open: usize) -> Option<usize> {
        let mut k = open.checked_sub(1)?;
        toks[k].ident().filter(|n| n.starts_with(char::is_uppercase))?;
        while k >= 2 && toks[k - 1].is("::") && toks[k - 2].kind == Kind::Ident {
            k -= 2;
        }
        let before = k.checked_sub(1).map_or("", |p| toks[p].text);
        let close = close_of(toks, open)?;
        let after = toks.get(close + 1).map_or("", |t| t.text);
        let pattern = before == "let"
            || before == "for" && after == "in"
            || ["{", ",", "}", "|", "(", ";"].contains(&before)
                && ["=>", "if", "|", "="].contains(&after);
        pattern.then_some(close)
    }

    /// The field names a destructuring pattern reads (`name: _` reads
    /// nothing).
    fn pattern(&mut self, toks: &[Tok], open: usize, close: usize) {
        let ty = Recv::Ty(self.resolve(toks[open - 1].text));
        for (a, b) in split_commas(toks, open + 1, close) {
            let a = (a..b).find(|&k| !toks[k].is("ref") && !toks[k].is("mut")).unwrap_or(b);
            let discarded = b == a + 3 && toks[a + 1].is(":") && toks[a + 2].is("_");
            if a < b && toks[a].kind == Kind::Ident && !discarded {
                self.push_ref(toks, a, RefKind::Pattern, ty.clone());
            }
        }
    }
}

/// What the whole tree declares, for resolving receivers: each struct's
/// field types and each function's return type.
#[derive(Default)]
pub struct Index<'a> {
    fields: HashMap<&'static str, HashMap<&'static str, Option<&'static str>>>,
    fns: HashMap<&'static str, Vec<&'a FnDef>>,
}

impl<'a> Index<'a> {
    pub fn new(scans: impl Iterator<Item = &'a Scan>) -> Index<'a> {
        let mut index = Index::default();
        for s in scans {
            for d in &s.structs {
                let entry = index.fields.entry(d.name).or_default();
                for f in &d.fields {
                    entry.entry(f.name).or_insert(f.ty);
                }
            }
            for f in &s.fns {
                index.fns.entry(f.name).or_default().push(f);
            }
        }
        index
    }

    pub fn has_field(&self, ty: &str, name: &str) -> bool {
        self.fields.get(ty).is_some_and(|f| f.contains_key(name))
    }

    /// The type a receiver names, when the tree shows one.
    pub fn resolve(&self, recv: &Recv) -> Option<&'static str> {
        match recv {
            Recv::Unknown => None,
            Recv::Ty(t) => Some(t),
            Recv::Field(base, name) => *self.fields.get(self.resolve(base)?)?.get(name)?,
            Recv::Ret(base, name, try_) => {
                let on = self.resolve(base);
                self.returned(|ty| ty.is_some() && (on.is_none() || ty == on), name, *try_)
            }
            Recv::FnRet(None, name, try_) => self.returned(|ty| ty.is_none(), name, *try_),
            Recv::FnRet(Some("?"), ..) => None,
            Recv::FnRet(Some(q), name, try_) => {
                let own = self.fns.get(name).is_some_and(|c| c.iter().any(|c| c.ty == Some(*q)));
                if own {
                    self.returned(|ty| ty == Some(*q), name, *try_)
                } else {
                    Some(*q).filter(|_| !try_)
                }
            }
        }
    }

    /// The upper-case names in the return types of the functions `r` may
    /// call: a free call or module path, `Type::name`, or a method on a
    /// receiver the tree resolves.
    pub fn returns_of(&self, r: &Ref) -> impl Iterator<Item = &'static str> + '_ {
        let ty = match r.kind {
            RefKind::Call | RefKind::Path(None) => Some(None),
            RefKind::Path(Some(q)) => Some(Some(q)),
            RefKind::Method => self.resolve(&r.recv).map(Some),
            _ => None,
        };
        let fns = ty.and_then(|ty| Some((ty, self.fns.get(r.name)?)));
        fns.into_iter()
            .flat_map(|(ty, fns)| fns.iter().filter(move |f| f.ty == ty))
            .flat_map(|f| f.ret_names.iter().copied())
    }

    /// The one type every function named `name` that `which` admits
    /// returns (through `?` when `try_`).
    fn returned(
        &self,
        which: impl Fn(Option<&str>) -> bool,
        name: &str,
        try_: bool,
    ) -> Option<&'static str> {
        let mut types = self.fns.get(name)?.iter().filter(|c| which(c.ty)).map(|c| {
            if try_ {
                c.ret_ok
            } else {
                c.ret
            }
        });
        let first = types.next()??;
        types.all(|t| t == Some(first)).then_some(first)
    }
}
