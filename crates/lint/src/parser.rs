//! A forgiving recursive-descent parser over the [`crate::tokenizer`]
//! stream, producing the simplified item tree the semantic S-rules walk.
//!
//! This is *not* a Rust parser; it is a lint-grade approximation with
//! three hard guarantees the rules (and the proptest suite) rely on:
//!
//! 1. **Never panics, never hangs.** Every loop makes token progress and
//!    recursion is capped at `MAX_DEPTH`; unparseable stretches degrade
//!    to [`Expr::Err`] nodes instead of failing the file.
//! 2. **Reads vs. writes are distinguished where the rules need it.**
//!    A struct-literal initializer key (`FleetReport { retries: 0, … }`)
//!    is recorded as an *init*, never as a field read — S001's coverage
//!    question is "is this counter ever *read* on the merge path", and
//!    initializing a field to zero must not count.
//! 3. **Positions survive.** Every node that can anchor a finding keeps
//!    the 1-based line/column of its defining token.
//!
//! The grammar subset: items (structs with fields, enums with variants,
//! fns with signatures and bodies, impl/mod/trait containers), statements,
//! and a Pratt expression core (paths, calls, method calls with turbofish,
//! field access, struct literals, closures, match arms, casts, the full
//! binary-operator ladder). Multi-character operators the tokenizer leaves
//! unfused (`==`, `=>`, `..`, `&&`, `<<`, …) are recognized by token
//! adjacency.

use crate::tokenizer::{Token, TokenKind};

/// Recursion cap: deeper nesting degrades to [`Expr::Err`] rather than
/// risking the stack. Real workspace code nests far shallower.
const MAX_DEPTH: u32 = 64;

/// Loop-iteration cap for the skip helpers (defense in depth; the
/// progress guarantees make it unreachable on any finite token stream).
const MAX_SKIP: usize = 1 << 20;

/// Simplified item tree of one source file.
#[derive(Debug, Clone, Default)]
pub struct ParseTree {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One top-level or container-nested item.
#[derive(Debug, Clone)]
pub enum Item {
    /// `struct Name { fields… }` (unit and tuple structs keep an empty
    /// field list).
    Struct(StructDef),
    /// `enum Name { variants… }`.
    Enum(EnumDef),
    /// `fn name(sig) { body }`.
    Fn(FnDef),
    /// `impl [Trait for] Type { items… }`.
    Impl(ImplDef),
    /// `mod name { items… }`.
    Mod(ModDef),
    /// `trait Name { items… }`.
    Trait(TraitDef),
}

/// A struct definition.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Token index of the name (for test-range checks).
    pub tok_ix: usize,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldDef>,
}

/// One named struct field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Type as space-joined tokens (`Vec < ReplicaStats >`).
    pub ty: String,
    /// 1-based line of the field name.
    pub line: u32,
    /// 1-based column of the field name.
    pub col: u32,
}

/// An enum definition (variant names only — enough for drift rules).
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token index of the name.
    pub tok_ix: usize,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
}

/// A function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Token index of the name (for test-range checks).
    pub tok_ix: usize,
    /// Signature after the name, space-joined (`( & self , other : & FleetReport ) -> f64`).
    pub sig: String,
    /// Body statements/expressions (empty for declarations).
    pub body: Vec<Expr>,
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// The implementing type's head identifier (`FleetReport` for
    /// `impl Trait for FleetReport<…>`).
    pub self_ty: String,
    /// Items inside the block.
    pub items: Vec<Item>,
}

/// An inline module.
#[derive(Debug, Clone)]
pub struct ModDef {
    /// Module name.
    pub name: String,
    /// Items inside the block (empty for `mod name;`).
    pub items: Vec<Item>,
}

/// A trait definition (holds default-method bodies).
#[derive(Debug, Clone)]
pub struct TraitDef {
    /// Trait name.
    pub name: String,
    /// Items inside the block.
    pub items: Vec<Item>,
}

/// One struct-literal initializer: `name: value`, shorthand `name`, or
/// the functional-update base (recorded with name `".."`).
#[derive(Debug, Clone)]
pub struct FieldInit {
    /// Field name being *written* (never a read).
    pub name: String,
    /// Initializer expression (`None` for shorthand).
    pub value: Option<Expr>,
    /// 1-based line of the key.
    pub line: u32,
    /// 1-based column of the key.
    pub col: u32,
}

/// One `match` arm.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Identifier tokens appearing in the pattern (path segments,
    /// bindings, enum names).
    pub pat_idents: Vec<String>,
    /// Whether the pattern is exactly the wildcard `_`.
    pub wildcard: bool,
    /// 1-based line of the pattern start.
    pub line: u32,
    /// 1-based column of the pattern start.
    pub col: u32,
    /// Arm body (guard expressions are folded in as a tuple element).
    pub body: Expr,
}

/// A `match` expression.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// Scrutinee expression.
    pub scrutinee: Box<Expr>,
    /// Arms in source order.
    pub arms: Vec<Arm>,
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// 1-based column of the `match` keyword.
    pub col: u32,
}

/// Simplified expression node.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A lone identifier (includes `_`, `true`, keywords used as values).
    Ident {
        /// Identifier text.
        name: String,
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
    },
    /// A `::`-separated path (`f64::INFINITY`, `SimError::QueueFull`).
    Path {
        /// Segments in order.
        segs: Vec<String>,
        /// 1-based line of the first segment.
        line: u32,
        /// 1-based column of the first segment.
        col: u32,
    },
    /// Numeric literal (text kept for float detection).
    Number {
        /// Literal text (`0.0f32`, `42`).
        text: String,
    },
    /// String/char/bool literal.
    Literal,
    /// Field access `base.name` — always a *read*.
    Field {
        /// Receiver.
        base: Box<Expr>,
        /// Field name (or tuple index).
        name: String,
        /// 1-based line of the name.
        line: u32,
        /// 1-based column of the name.
        col: u32,
    },
    /// Method call `base.name::<T>(args)`.
    Method {
        /// Receiver.
        base: Box<Expr>,
        /// Method name.
        name: String,
        /// Identifiers inside the turbofish, if any (`["f64"]`).
        turbofish: Vec<String>,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line of the name.
        line: u32,
        /// 1-based column of the name.
        col: u32,
    },
    /// Call `callee(args)` — also macro invocations `name!(args)`.
    Call {
        /// Callee expression (path for macros).
        callee: Box<Expr>,
        /// Arguments (macro bodies parse as comma-separated exprs).
        args: Vec<Expr>,
    },
    /// Index `base[index]`.
    Index {
        /// Receiver.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Prefix operator (`-x`, `!x`, `*x`, `&x`) or value-carrying
    /// keyword (`return x`) — unit-preserving.
    Unary(Box<Expr>),
    /// `expr as Type` — unit-preserving (the type is not kept).
    Cast(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator text (`+`, `<=`, `&&`, `=`, `..`).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// 1-based line of the operator.
        line: u32,
        /// 1-based column of the operator.
        col: u32,
    },
    /// Struct literal `Name { inits }` — keys are writes, values reads.
    StructLit {
        /// Struct (or enum-variant) head name.
        name: String,
        /// Initializers in source order.
        inits: Vec<FieldInit>,
        /// 1-based line of the name.
        line: u32,
        /// 1-based column of the name.
        col: u32,
    },
    /// Closure `|args| body` (parameter patterns are not kept).
    Closure(Box<Expr>),
    /// `match` expression.
    Match(MatchExpr),
    /// Block `{ stmts }` (also if/loop bodies).
    Block(Vec<Expr>),
    /// Grouping without its own semantics: tuples, arrays, if/while/for
    /// condition+body bundles, macro argument lists.
    Tuple(Vec<Expr>),
    /// Unparseable stretch — recovery placeholder.
    Err,
}

impl Expr {
    /// Calls `f` on this node and every child, pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Ident { .. }
            | Expr::Path { .. }
            | Expr::Number { .. }
            | Expr::Literal
            | Expr::Err => {}
            Expr::Field { base, .. } => base.walk(f),
            Expr::Method { base, args, .. } => {
                base.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Call { callee, args } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Index { base, index } => {
                base.walk(f);
                index.walk(f);
            }
            Expr::Unary(e) | Expr::Cast(e) | Expr::Closure(e) => e.walk(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::StructLit { inits, .. } => {
                for init in inits {
                    if let Some(v) = &init.value {
                        v.walk(f);
                    }
                }
            }
            Expr::Match(m) => {
                m.scrutinee.walk(f);
                for arm in &m.arms {
                    arm.body.walk(f);
                }
            }
            Expr::Block(es) | Expr::Tuple(es) => {
                for e in es {
                    e.walk(f);
                }
            }
        }
    }
}

impl ParseTree {
    /// Calls `f` on every function in the tree (any nesting), with the
    /// `impl` self-type when inside an impl block.
    pub fn for_each_fn<'a>(&'a self, f: &mut impl FnMut(&'a FnDef, Option<&'a str>)) {
        fn rec<'a>(
            items: &'a [Item],
            self_ty: Option<&'a str>,
            f: &mut impl FnMut(&'a FnDef, Option<&'a str>),
        ) {
            for item in items {
                match item {
                    Item::Fn(func) => f(func, self_ty),
                    Item::Impl(im) => rec(&im.items, Some(&im.self_ty), f),
                    Item::Mod(m) => rec(&m.items, self_ty, f),
                    Item::Trait(t) => rec(&t.items, None, f),
                    Item::Struct(_) | Item::Enum(_) => {}
                }
            }
        }
        rec(&self.items, None, f);
    }

    /// Calls `f` on every struct definition in the tree.
    pub fn for_each_struct<'a>(&'a self, f: &mut impl FnMut(&'a StructDef)) {
        fn rec<'a>(items: &'a [Item], f: &mut impl FnMut(&'a StructDef)) {
            for item in items {
                match item {
                    Item::Struct(s) => f(s),
                    Item::Impl(im) => rec(&im.items, f),
                    Item::Mod(m) => rec(&m.items, f),
                    Item::Trait(t) => rec(&t.items, f),
                    Item::Fn(_) | Item::Enum(_) => {}
                }
            }
        }
        rec(&self.items, f);
    }
}

/// Parses a token stream into the simplified item tree. Infallible:
/// malformed input produces partial items and [`Expr::Err`] nodes.
#[must_use]
pub fn parse(tokens: &[Token]) -> ParseTree {
    let mut p = Parser { t: tokens, i: 0 };
    ParseTree {
        items: p.parse_items(0),
    }
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
}

/// Binding powers for the Pratt loop (higher binds tighter).
const BP_ASSIGN: u8 = 2;
const BP_RANGE: u8 = 3;
const BP_OR: u8 = 4;
const BP_AND: u8 = 5;
const BP_CMP: u8 = 6;
const BP_BITOR: u8 = 7;
const BP_BITXOR: u8 = 8;
const BP_BITAND: u8 = 9;
const BP_SHIFT: u8 = 10;
const BP_ADD: u8 = 11;
const BP_MUL: u8 = 12;

impl<'a> Parser<'a> {
    fn tok(&self, off: usize) -> Option<&'a Token> {
        self.t.get(self.i + off)
    }

    fn text(&self, off: usize) -> &'a str {
        self.tok(off).map_or("", |t| t.text.as_str())
    }

    fn kind(&self, off: usize) -> Option<TokenKind> {
        self.tok(off).map(|t| t.kind)
    }

    fn pos(&self) -> (u32, u32) {
        self.tok(0).map_or((0, 0), |t| (t.line, t.col))
    }

    fn done(&self) -> bool {
        self.i >= self.t.len()
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.text(0) == s {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Whether the token at `off` starts exactly where the token at
    /// `off-1` ends — how unfused multi-char operators are recognized.
    fn adjacent(&self, off: usize) -> bool {
        match (self.tok(off.wrapping_sub(1)), self.tok(off)) {
            (Some(a), Some(b)) => {
                a.line == b.line && b.col == a.col + a.text.chars().count() as u32
            }
            _ => false,
        }
    }

    // ---- items ------------------------------------------------------

    /// Parses items until `}` (not consumed) or end of input.
    fn parse_items(&mut self, depth: u32) -> Vec<Item> {
        let mut items = Vec::new();
        if depth > MAX_DEPTH {
            return items;
        }
        while !self.done() {
            if self.text(0) == "}" {
                break;
            }
            let before = self.i;
            self.skip_item_prelude();
            match self.text(0) {
                "struct" => {
                    if let Some(s) = self.parse_struct() {
                        items.push(Item::Struct(s));
                    }
                }
                "enum" => {
                    if let Some(e) = self.parse_enum() {
                        items.push(Item::Enum(e));
                    }
                }
                "fn" => {
                    if let Some(f) = self.parse_fn(depth + 1) {
                        items.push(Item::Fn(f));
                    }
                }
                "impl" => {
                    if let Some(im) = self.parse_impl(depth + 1) {
                        items.push(Item::Impl(im));
                    }
                }
                "mod" => {
                    if let Some(m) = self.parse_mod(depth + 1) {
                        items.push(Item::Mod(m));
                    }
                }
                "trait" => {
                    if let Some(t) = self.parse_trait(depth + 1) {
                        items.push(Item::Trait(t));
                    }
                }
                "use" | "type" | "static" => self.skip_to_semi(),
                "const" => {
                    // `const fn` is a qualifier; `const NAME: T = …;` an item.
                    if self.text(1) == "fn" {
                        self.bump();
                    } else {
                        self.skip_to_semi();
                    }
                }
                "unsafe" | "async" | "default" => {
                    self.bump(); // qualifier — re-dispatch next iteration
                }
                "extern" => {
                    self.bump();
                    if self.kind(0) == Some(TokenKind::Literal) {
                        self.bump();
                    }
                }
                "macro_rules" => {
                    self.bump();
                    self.eat("!");
                    if self.kind(0) == Some(TokenKind::Ident) {
                        self.bump();
                    }
                    if self.text(0) == "{" {
                        self.skip_balanced("{", "}");
                    }
                }
                _ => {
                    // Item-level macro invocation or unparseable: recover.
                    if self.kind(0) == Some(TokenKind::Ident) && self.text(1) == "!" {
                        self.bump();
                        self.bump();
                        match self.text(0) {
                            "{" => self.skip_balanced("{", "}"),
                            "(" => self.skip_balanced("(", ")"),
                            "[" => self.skip_balanced("[", "]"),
                            _ => {}
                        }
                    } else {
                        self.bump();
                    }
                }
            }
            if self.i == before && self.text(0) != "}" {
                self.bump();
            }
        }
        items
    }

    /// Skips attributes (`#[…]`, `#![…]`) and visibility (`pub(…)`).
    fn skip_item_prelude(&mut self) {
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > MAX_SKIP {
                return;
            }
            if self.text(0) == "#"
                && (self.text(1) == "[" || (self.text(1) == "!" && self.text(2) == "["))
            {
                self.bump();
                self.eat("!");
                self.skip_balanced("[", "]");
                continue;
            }
            if self.text(0) == "pub" {
                self.bump();
                if self.text(0) == "(" {
                    self.skip_balanced("(", ")");
                }
                continue;
            }
            return;
        }
    }

    fn parse_struct(&mut self) -> Option<StructDef> {
        self.bump(); // struct
        if self.kind(0) != Some(TokenKind::Ident) {
            return None;
        }
        let (line, col) = self.pos();
        let tok_ix = self.i;
        let name = self.text(0).to_string();
        self.bump();
        if self.text(0) == "<" {
            self.skip_angles();
        }
        let mut def = StructDef {
            name,
            line,
            col,
            tok_ix,
            fields: Vec::new(),
        };
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > MAX_SKIP || self.done() {
                return Some(def);
            }
            match self.text(0) {
                ";" => {
                    self.bump();
                    return Some(def);
                }
                "(" => {
                    // Tuple struct: positional fields carry no names for
                    // coverage rules; skip them.
                    self.skip_balanced("(", ")");
                }
                "where" => self.skip_where(),
                "{" => {
                    self.bump();
                    def.fields = self.parse_fields();
                    return Some(def);
                }
                "}" => return Some(def),
                _ => self.bump(),
            }
        }
    }

    /// Parses named fields up to and including the closing `}`.
    fn parse_fields(&mut self) -> Vec<FieldDef> {
        let mut fields = Vec::new();
        let mut guard = 0usize;
        while !self.done() {
            guard += 1;
            if guard > MAX_SKIP {
                break;
            }
            if self.eat("}") {
                break;
            }
            self.skip_item_prelude();
            if self.kind(0) != Some(TokenKind::Ident) || self.text(1) != ":" {
                if !self.eat(",") && self.text(0) != "}" {
                    self.bump(); // recovery
                }
                continue;
            }
            let (line, col) = self.pos();
            let fname = self.text(0).to_string();
            self.bump(); // name
            self.bump(); // :
            let mut ty = String::new();
            let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
            while !self.done() {
                match self.text(0) {
                    "," if paren == 0 && bracket == 0 && angle <= 0 => break,
                    "}" if paren == 0 && bracket == 0 => break,
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    _ => {}
                }
                if !ty.is_empty() {
                    ty.push(' ');
                }
                ty.push_str(self.text(0));
                self.bump();
            }
            fields.push(FieldDef {
                name: fname,
                ty,
                line,
                col,
            });
            self.eat(",");
        }
        fields
    }

    fn parse_enum(&mut self) -> Option<EnumDef> {
        self.bump(); // enum
        if self.kind(0) != Some(TokenKind::Ident) {
            return None;
        }
        let (line, _) = self.pos();
        let tok_ix = self.i;
        let name = self.text(0).to_string();
        self.bump();
        if self.text(0) == "<" {
            self.skip_angles();
        }
        if self.text(0) == "where" {
            self.skip_where();
        }
        let mut variants = Vec::new();
        if self.eat("{") {
            let mut guard = 0usize;
            while !self.done() {
                guard += 1;
                if guard > MAX_SKIP {
                    break;
                }
                if self.eat("}") {
                    break;
                }
                self.skip_item_prelude();
                if self.kind(0) == Some(TokenKind::Ident) {
                    variants.push(self.text(0).to_string());
                    self.bump();
                    match self.text(0) {
                        "(" => self.skip_balanced("(", ")"),
                        "{" => self.skip_balanced("{", "}"),
                        _ => {}
                    }
                    if self.eat("=") {
                        // Discriminant: skip to `,` / `}`.
                        while !self.done() && self.text(0) != "," && self.text(0) != "}" {
                            self.bump();
                        }
                    }
                    self.eat(",");
                } else if !self.eat(",") {
                    self.bump(); // recovery
                }
            }
        }
        Some(EnumDef {
            name,
            line,
            tok_ix,
            variants,
        })
    }

    fn parse_fn(&mut self, depth: u32) -> Option<FnDef> {
        self.bump(); // fn
        if self.kind(0) != Some(TokenKind::Ident) {
            return None;
        }
        let (line, col) = self.pos();
        let tok_ix = self.i;
        let name = self.text(0).to_string();
        self.bump();
        let mut sig = String::new();
        let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > MAX_SKIP || self.done() {
                return Some(FnDef {
                    name,
                    line,
                    col,
                    tok_ix,
                    sig,
                    body: Vec::new(),
                });
            }
            match self.text(0) {
                "{" if paren == 0 && bracket == 0 && angle <= 0 => break,
                ";" if paren == 0 && bracket == 0 && angle <= 0 => {
                    self.bump();
                    return Some(FnDef {
                        name,
                        line,
                        col,
                        tok_ix,
                        sig,
                        body: Vec::new(),
                    });
                }
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            if !sig.is_empty() {
                sig.push(' ');
            }
            sig.push_str(self.text(0));
            self.bump();
        }
        self.bump(); // {
        let body = self.parse_block_stmts(depth + 1);
        Some(FnDef {
            name,
            line,
            col,
            tok_ix,
            sig,
            body,
        })
    }

    fn parse_impl(&mut self, depth: u32) -> Option<ImplDef> {
        self.bump(); // impl
        if self.text(0) == "<" {
            self.skip_angles();
        }
        // Collect head tokens up to `for` / `where` / `{`; the self type
        // is the head after `for` when present (trait impl), else the
        // first head.
        let mut head: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > MAX_SKIP || self.done() {
                return None;
            }
            match self.text(0) {
                "{" => break,
                "where" => self.skip_where(),
                "for" => {
                    saw_for = true;
                    self.bump();
                }
                "<" => self.skip_angles(),
                _ => {
                    if self.kind(0) == Some(TokenKind::Ident) {
                        if saw_for {
                            after_for.push(self.text(0).to_string());
                        } else {
                            head.push(self.text(0).to_string());
                        }
                    }
                    self.bump();
                }
            }
        }
        self.bump(); // {
        let ty_segs = if saw_for { &after_for } else { &head };
        // Last path segment of the type head (skip `dyn`/`mut` keywords).
        let self_ty = ty_segs
            .iter()
            .rev()
            .find(|s| !matches!(s.as_str(), "dyn" | "mut" | "const"))
            .cloned()
            .unwrap_or_default();
        let items = self.parse_items(depth + 1);
        self.eat("}");
        Some(ImplDef { self_ty, items })
    }

    fn parse_mod(&mut self, depth: u32) -> Option<ModDef> {
        self.bump(); // mod
        if self.kind(0) != Some(TokenKind::Ident) {
            return None;
        }
        let name = self.text(0).to_string();
        self.bump();
        let mut items = Vec::new();
        if self.eat("{") {
            items = self.parse_items(depth + 1);
            self.eat("}");
        } else {
            self.eat(";");
        }
        Some(ModDef { name, items })
    }

    fn parse_trait(&mut self, depth: u32) -> Option<TraitDef> {
        self.bump(); // trait
        if self.kind(0) != Some(TokenKind::Ident) {
            return None;
        }
        let name = self.text(0).to_string();
        self.bump();
        if self.text(0) == "<" {
            self.skip_angles();
        }
        // Supertraits / where clause: skip to `{` or `;`.
        let mut guard = 0usize;
        while !self.done() && self.text(0) != "{" && self.text(0) != ";" {
            guard += 1;
            if guard > MAX_SKIP {
                break;
            }
            if self.text(0) == "<" {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
        let mut items = Vec::new();
        if self.eat("{") {
            items = self.parse_items(depth + 1);
            self.eat("}");
        } else {
            self.eat(";");
        }
        Some(TraitDef { name, items })
    }

    // ---- statements ---------------------------------------------------

    /// Parses statements up to and including the closing `}`.
    fn parse_block_stmts(&mut self, depth: u32) -> Vec<Expr> {
        let mut out = Vec::new();
        if depth > MAX_DEPTH {
            // Too deep: skip the block wholesale (the `{` was consumed).
            let mut brace = 1i32;
            while !self.done() && brace > 0 {
                match self.text(0) {
                    "{" => brace += 1,
                    "}" => brace -= 1,
                    _ => {}
                }
                self.bump();
            }
            return out;
        }
        while !self.done() {
            if self.eat("}") {
                return out;
            }
            let before = self.i;
            match self.text(0) {
                ";" => {
                    self.bump();
                }
                "#" => {
                    self.bump();
                    self.eat("!");
                    if self.text(0) == "[" {
                        self.skip_balanced("[", "]");
                    }
                }
                "let" => out.push(self.parse_let(depth + 1)),
                "use" | "type" => self.skip_to_semi(),
                "const" | "static" if self.text(1) != "fn" => self.skip_to_semi(),
                "fn" => {
                    // Nested fn: keep its body walkable, drop the name.
                    if let Some(f) = self.parse_fn(depth + 1) {
                        out.push(Expr::Block(f.body));
                    }
                }
                "struct" => {
                    let _ = self.parse_struct();
                }
                "enum" => {
                    let _ = self.parse_enum();
                }
                "impl" => {
                    let _ = self.parse_impl(depth + 1);
                }
                "mod" => {
                    let _ = self.parse_mod(depth + 1);
                }
                "trait" => {
                    let _ = self.parse_trait(depth + 1);
                }
                _ => {
                    let e = self.parse_expr(depth + 1, true);
                    out.push(e);
                    self.eat(";");
                }
            }
            if self.i == before && self.text(0) != "}" {
                self.bump();
            }
        }
        out
    }

    /// `let PAT(: TY)? = EXPR (else { … })? ;` — returns the initializer
    /// (pattern and type are consumed, not kept).
    fn parse_let(&mut self, depth: u32) -> Expr {
        self.bump(); // let
        self.skip_pattern_until_eq_or_semi();
        if self.text(0) != "=" {
            self.eat(";");
            return Expr::Err;
        }
        self.bump(); // =
        let value = self.parse_expr(depth + 1, true);
        if self.text(0) == "else" && self.text(1) == "{" {
            self.bump();
            self.bump();
            let alt = Expr::Block(self.parse_block_stmts(depth + 1));
            self.eat(";");
            return Expr::Tuple(vec![value, alt]);
        }
        self.eat(";");
        value
    }

    /// Consumes pattern (and optional type ascription) tokens up to a
    /// top-level `=` (not consumed) or `;`/`}` (not consumed).
    fn skip_pattern_until_eq_or_semi(&mut self) {
        let (mut paren, mut bracket, mut brace, mut angle) = (0i32, 0i32, 0i32, 0i32);
        let mut guard = 0usize;
        while !self.done() {
            guard += 1;
            if guard > MAX_SKIP {
                return;
            }
            let at_top = paren == 0 && bracket == 0 && brace == 0 && angle <= 0;
            match self.text(0) {
                // `..=` inside range patterns: consume the `=` with the dots.
                "." if self.text(1) == "." => {
                    self.bump();
                    self.bump();
                    self.eat("=");
                    continue;
                }
                "=" if at_top => return,
                ";" | "}" if at_top => return,
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" => brace += 1,
                "}" => brace -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            self.bump();
        }
    }

    // ---- expressions ----------------------------------------------------

    /// Parses one expression. `struct_ok` gates struct-literal parsing
    /// (off in `if`/`while`/`for`/`match`-header position, like Rust).
    fn parse_expr(&mut self, depth: u32, struct_ok: bool) -> Expr {
        self.parse_bp(depth, 0, struct_ok)
    }

    /// Multi-token infix operator at the cursor: `(text, token_count,
    /// binding_power)`. `=>` is never an operator (match arrows stop the
    /// loop).
    fn peek_binop(&self) -> Option<(&'static str, usize, u8)> {
        let a = self.text(0);
        match a {
            "+=" => return Some(("+=", 1, BP_ASSIGN)),
            "-=" => return Some(("-=", 1, BP_ASSIGN)),
            "*=" => return Some(("*=", 1, BP_ASSIGN)),
            "/=" => return Some(("/=", 1, BP_ASSIGN)),
            _ => {}
        }
        let b = if self.adjacent(1) { self.text(1) } else { "" };
        let c = if !b.is_empty() && self.adjacent(2) {
            self.text(2)
        } else {
            ""
        };
        Some(match (a, b, c) {
            (".", ".", "=") => ("..=", 3, BP_RANGE),
            (".", ".", _) => ("..", 2, BP_RANGE),
            ("=", ">", _) => return None, // match arm arrow
            ("=", "=", _) => ("==", 2, BP_CMP),
            ("!", "=", _) => ("!=", 2, BP_CMP),
            ("<", "=", _) => ("<=", 2, BP_CMP),
            (">", "=", _) => (">=", 2, BP_CMP),
            ("<", "<", _) => ("<<", 2, BP_SHIFT),
            (">", ">", _) => (">>", 2, BP_SHIFT),
            ("&", "&", _) => ("&&", 2, BP_AND),
            ("|", "|", _) => ("||", 2, BP_OR),
            ("%", "=", _) => ("%=", 2, BP_ASSIGN),
            ("=", _, _) => ("=", 1, BP_ASSIGN),
            ("<", _, _) => ("<", 1, BP_CMP),
            (">", _, _) => (">", 1, BP_CMP),
            ("|", _, _) => ("|", 1, BP_BITOR),
            ("^", _, _) => ("^", 1, BP_BITXOR),
            ("&", _, _) => ("&", 1, BP_BITAND),
            ("+", _, _) => ("+", 1, BP_ADD),
            ("-", _, _) => ("-", 1, BP_ADD),
            ("*", _, _) => ("*", 1, BP_MUL),
            ("/", _, _) => ("/", 1, BP_MUL),
            ("%", _, _) => ("%", 1, BP_MUL),
            _ => return None,
        })
    }

    fn parse_bp(&mut self, depth: u32, min_bp: u8, struct_ok: bool) -> Expr {
        if depth > MAX_DEPTH {
            if !self.done() && !matches!(self.text(0), ")" | "]" | "}" | "," | ";") {
                self.bump();
            }
            return Expr::Err;
        }
        let mut lhs = self.parse_prefix(depth + 1, struct_ok);
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > MAX_SKIP {
                return lhs;
            }
            if self.text(0) == "as" {
                self.bump();
                self.skip_cast_type();
                lhs = Expr::Cast(Box::new(lhs));
                continue;
            }
            let Some((op, ntoks, bp)) = self.peek_binop() else {
                break;
            };
            if bp < min_bp {
                break;
            }
            let (line, col) = self.pos();
            for _ in 0..ntoks {
                self.bump();
            }
            // Open-ended ranges (`&xs[1..]`) have no right operand.
            let rhs = if (op == ".." || op == "..=")
                && matches!(self.text(0), ")" | "]" | "}" | "," | ";" | "")
            {
                Expr::Err
            } else {
                // Assignments are right-associative; everything else left.
                let next_min = if bp == BP_ASSIGN { bp } else { bp + 1 };
                self.parse_bp(depth + 1, next_min, struct_ok)
            };
            lhs = Expr::Binary {
                op: op.to_string(),
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
                col,
            };
        }
        lhs
    }

    fn parse_prefix(&mut self, depth: u32, struct_ok: bool) -> Expr {
        if depth > MAX_DEPTH {
            if !self.done() && !matches!(self.text(0), ")" | "]" | "}" | "," | ";") {
                self.bump();
            }
            return Expr::Err;
        }
        match self.text(0) {
            "-" | "!" | "*" => {
                self.bump();
                Expr::Unary(Box::new(self.parse_prefix(depth + 1, struct_ok)))
            }
            "&" => {
                self.bump();
                self.eat("mut");
                Expr::Unary(Box::new(self.parse_prefix(depth + 1, struct_ok)))
            }
            "move" => {
                self.bump();
                self.parse_prefix(depth + 1, struct_ok)
            }
            _ => {
                let p = self.parse_primary(depth + 1, struct_ok);
                self.parse_postfix(depth + 1, p)
            }
        }
    }

    #[allow(clippy::too_many_lines)] // one grammar dispatch, clearest flat
    fn parse_primary(&mut self, depth: u32, struct_ok: bool) -> Expr {
        if depth > MAX_DEPTH || self.done() {
            if !self.done() && !matches!(self.text(0), ")" | "]" | "}" | "," | ";") {
                self.bump();
            }
            return Expr::Err;
        }
        let (line, col) = self.pos();
        match self.kind(0) {
            Some(TokenKind::Number) => {
                let text = self.text(0).to_string();
                self.bump();
                Expr::Number { text }
            }
            Some(TokenKind::Literal) => {
                self.bump();
                Expr::Literal
            }
            Some(TokenKind::Lifetime) => {
                // Loop label: `'outer: loop { … }`.
                self.bump();
                self.eat(":");
                self.parse_primary(depth + 1, struct_ok)
            }
            Some(TokenKind::Ident) => match self.text(0) {
                "if" => self.parse_if(depth + 1),
                "match" => self.parse_match(depth + 1),
                "while" => {
                    self.bump();
                    if self.eat("let") {
                        self.skip_pattern_until_eq_or_semi();
                        self.eat("=");
                    }
                    let cond = self.parse_expr(depth + 1, false);
                    let body = self.parse_brace_block(depth + 1);
                    Expr::Tuple(vec![cond, body])
                }
                "loop" => {
                    self.bump();
                    self.parse_brace_block(depth + 1)
                }
                "for" => {
                    self.bump();
                    // Pattern up to `in`.
                    let (mut paren, mut bracket) = (0i32, 0i32);
                    let mut guard = 0usize;
                    while !self.done() {
                        guard += 1;
                        if guard > MAX_SKIP {
                            break;
                        }
                        match self.text(0) {
                            "in" if paren == 0 && bracket == 0 => break,
                            "{" | "}" | ";" => break, // malformed
                            "(" => paren += 1,
                            ")" => paren -= 1,
                            "[" => bracket += 1,
                            "]" => bracket -= 1,
                            _ => {}
                        }
                        self.bump();
                    }
                    self.eat("in");
                    let iter = self.parse_expr(depth + 1, false);
                    let body = self.parse_brace_block(depth + 1);
                    Expr::Tuple(vec![iter, body])
                }
                "return" | "break" => {
                    self.bump();
                    if matches!(self.text(0), ")" | "]" | "}" | "," | ";" | "") {
                        Expr::Ident {
                            name: "return".into(),
                            line,
                            col,
                        }
                    } else {
                        Expr::Unary(Box::new(self.parse_expr(depth + 1, struct_ok)))
                    }
                }
                "continue" => {
                    self.bump();
                    Expr::Ident {
                        name: "continue".into(),
                        line,
                        col,
                    }
                }
                "unsafe" => {
                    self.bump();
                    self.parse_brace_block(depth + 1)
                }
                _ => self.parse_path_based(depth + 1, struct_ok),
            },
            Some(TokenKind::Punct) => match self.text(0) {
                "(" => {
                    self.bump();
                    let items = self.parse_comma_exprs(depth + 1, ")");
                    if items.len() == 1 {
                        items.into_iter().next().unwrap_or(Expr::Err)
                    } else {
                        Expr::Tuple(items)
                    }
                }
                "[" => {
                    self.bump();
                    Expr::Tuple(self.parse_comma_exprs(depth + 1, "]"))
                }
                "{" => {
                    self.bump();
                    Expr::Block(self.parse_block_stmts(depth + 1))
                }
                "|" => self.parse_closure(depth + 1),
                ")" | "]" | "}" | "," | ";" => Expr::Err, // never consume closers
                _ => {
                    self.bump();
                    Expr::Err
                }
            },
            None => Expr::Err,
        }
    }

    /// Path, macro invocation, struct literal, or plain identifier.
    fn parse_path_based(&mut self, depth: u32, struct_ok: bool) -> Expr {
        let (line, col) = self.pos();
        let mut segs = vec![self.text(0).to_string()];
        self.bump();
        let mut guard = 0usize;
        while self.text(0) == "::" {
            guard += 1;
            if guard > MAX_SKIP {
                break;
            }
            if self.text(1) == "<" {
                // Path turbofish (`Vec::<f64>::new`): skip the types.
                self.bump();
                self.skip_angles();
                continue;
            }
            if self.kind(1) == Some(TokenKind::Ident) {
                segs.push(self.text(1).to_string());
                self.bump();
                self.bump();
                continue;
            }
            break;
        }
        // Macro invocation: arguments parse as comma-separated exprs so
        // field reads inside `format!` / `assert!` bodies still count.
        if self.text(0) == "!" && matches!(self.text(1), "(" | "[" | "{") {
            self.bump();
            let close = match self.text(0) {
                "(" => ")",
                "[" => "]",
                _ => "}",
            };
            self.bump();
            let args = self.parse_comma_exprs(depth + 1, close);
            return Expr::Call {
                callee: Box::new(Expr::Path { segs, line, col }),
                args,
            };
        }
        // Struct literal: `Path {` with an uppercase head, where allowed.
        let head_upper = segs
            .last()
            .and_then(|s| s.chars().next())
            .is_some_and(char::is_uppercase);
        if self.text(0) == "{" && struct_ok && head_upper {
            let name = segs.last().cloned().unwrap_or_default();
            return self.parse_struct_lit(depth + 1, name, line, col);
        }
        if segs.len() == 1 {
            Expr::Ident {
                name: segs.pop().unwrap_or_default(),
                line,
                col,
            }
        } else {
            Expr::Path { segs, line, col }
        }
    }

    fn parse_struct_lit(&mut self, depth: u32, name: String, line: u32, col: u32) -> Expr {
        self.bump(); // {
        let mut inits = Vec::new();
        let mut guard = 0usize;
        while !self.done() {
            guard += 1;
            if guard > MAX_SKIP {
                break;
            }
            if self.eat("}") {
                break;
            }
            let before = self.i;
            self.skip_item_prelude();
            if self.text(0) == "." && self.text(1) == "." {
                // Functional update: `..base`.
                let (bline, bcol) = self.pos();
                self.bump();
                self.bump();
                let base = self.parse_expr(depth + 1, true);
                inits.push(FieldInit {
                    name: "..".into(),
                    value: Some(base),
                    line: bline,
                    col: bcol,
                });
            } else if self.kind(0) == Some(TokenKind::Ident) {
                let (fline, fcol) = self.pos();
                let fname = self.text(0).to_string();
                self.bump();
                let value = if self.eat(":") {
                    Some(self.parse_expr(depth + 1, true))
                } else {
                    None // shorthand
                };
                inits.push(FieldInit {
                    name: fname,
                    value,
                    line: fline,
                    col: fcol,
                });
            }
            self.eat(",");
            if self.i == before && self.text(0) != "}" {
                self.bump(); // recovery
            }
        }
        Expr::StructLit {
            name,
            inits,
            line,
            col,
        }
    }

    fn parse_closure(&mut self, depth: u32) -> Expr {
        self.bump(); // |
                     // Parameter patterns (with optional types) up to the closing `|`.
        let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
        let mut guard = 0usize;
        while !self.done() {
            guard += 1;
            if guard > MAX_SKIP {
                break;
            }
            match self.text(0) {
                "|" if paren == 0 && bracket == 0 && angle <= 0 => {
                    self.bump();
                    break;
                }
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" | "}" | ";" => break, // malformed parameter list
                _ => {}
            }
            if self.text(0) != "|" || paren != 0 || bracket != 0 || angle > 0 {
                self.bump();
            }
        }
        if self.text(0) == "->" {
            // Return type: skip to the body `{`.
            self.bump();
            let mut g2 = 0usize;
            while !self.done() && self.text(0) != "{" && self.text(0) != ";" && self.text(0) != ","
            {
                g2 += 1;
                if g2 > MAX_SKIP {
                    break;
                }
                if self.text(0) == "<" {
                    self.skip_angles();
                } else {
                    self.bump();
                }
            }
        }
        Expr::Closure(Box::new(self.parse_expr(depth + 1, true)))
    }

    fn parse_if(&mut self, depth: u32) -> Expr {
        self.bump(); // if
        if self.eat("let") {
            self.skip_pattern_until_eq_or_semi();
            self.eat("=");
        }
        let cond = self.parse_expr(depth + 1, false);
        let mut parts = vec![cond];
        if self.text(0) == "{" {
            parts.push(self.parse_brace_block(depth + 1));
        }
        if self.eat("else") {
            if self.text(0) == "if" {
                parts.push(self.parse_if(depth + 1));
            } else if self.text(0) == "{" {
                parts.push(self.parse_brace_block(depth + 1));
            }
        }
        Expr::Tuple(parts)
    }

    fn parse_match(&mut self, depth: u32) -> Expr {
        let (line, col) = self.pos();
        self.bump(); // match
        let scrutinee = Box::new(self.parse_expr(depth + 1, false));
        let mut arms = Vec::new();
        if !self.eat("{") {
            return Expr::Match(MatchExpr {
                scrutinee,
                arms,
                line,
                col,
            });
        }
        let mut guard = 0usize;
        while !self.done() {
            guard += 1;
            if guard > MAX_SKIP {
                break;
            }
            if self.eat("}") {
                break;
            }
            let before = self.i;
            self.skip_item_prelude();
            // Pattern tokens up to the top-level `=>` (or an `if` guard).
            let (pline, pcol) = self.pos();
            let mut pat: Vec<String> = Vec::new();
            let mut pat_idents: Vec<String> = Vec::new();
            let mut guard_expr: Option<Expr> = None;
            let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
            let mut g2 = 0usize;
            let mut arrow = false;
            while !self.done() {
                g2 += 1;
                if g2 > MAX_SKIP {
                    break;
                }
                let at_top = paren == 0 && bracket == 0 && brace == 0;
                if at_top && self.text(0) == "=" && self.adjacent(1) && self.text(1) == ">" {
                    self.bump();
                    self.bump();
                    arrow = true;
                    break;
                }
                if at_top && self.text(0) == "if" {
                    self.bump();
                    guard_expr = Some(self.parse_expr(depth + 1, false));
                    continue;
                }
                if at_top && self.text(0) == "}" {
                    break; // malformed arm; outer loop closes the match
                }
                match self.text(0) {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "{" => brace += 1,
                    "}" => brace -= 1,
                    _ => {}
                }
                if self.kind(0) == Some(TokenKind::Ident) {
                    pat_idents.push(self.text(0).to_string());
                }
                pat.push(self.text(0).to_string());
                self.bump();
            }
            if !arrow {
                continue;
            }
            let mut body = self.parse_expr(depth + 1, true);
            if let Some(g) = guard_expr {
                body = Expr::Tuple(vec![g, body]);
            }
            self.eat(",");
            arms.push(Arm {
                wildcard: pat.len() == 1 && pat[0] == "_",
                pat_idents,
                line: pline,
                col: pcol,
                body,
            });
            if self.i == before && self.text(0) != "}" {
                self.bump();
            }
        }
        Expr::Match(MatchExpr {
            scrutinee,
            arms,
            line,
            col,
        })
    }

    fn parse_postfix(&mut self, depth: u32, mut e: Expr) -> Expr {
        if depth > MAX_DEPTH {
            return e;
        }
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > MAX_SKIP {
                return e;
            }
            match self.text(0) {
                // `.` — but not `..` (range operator, handled by the
                // binary loop).
                "." if !(self.adjacent(1) && self.text(1) == ".") => {
                    match self.kind(1) {
                        Some(TokenKind::Number) => {
                            let (nline, ncol) = self.tok(1).map_or((0, 0), |t| (t.line, t.col));
                            let name = self.text(1).to_string();
                            self.bump();
                            self.bump();
                            e = Expr::Field {
                                base: Box::new(e),
                                name,
                                line: nline,
                                col: ncol,
                            };
                        }
                        Some(TokenKind::Ident) if self.text(1) == "await" => {
                            self.bump();
                            self.bump();
                        }
                        Some(TokenKind::Ident) => {
                            let (nline, ncol) = self.tok(1).map_or((0, 0), |t| (t.line, t.col));
                            let name = self.text(1).to_string();
                            self.bump();
                            self.bump();
                            let mut turbofish = Vec::new();
                            if self.text(0) == "::" && self.text(1) == "<" {
                                self.bump();
                                turbofish = self.collect_angle_idents();
                            }
                            if self.eat("(") {
                                let args = self.parse_comma_exprs(depth + 1, ")");
                                e = Expr::Method {
                                    base: Box::new(e),
                                    name,
                                    turbofish,
                                    args,
                                    line: nline,
                                    col: ncol,
                                };
                            } else {
                                e = Expr::Field {
                                    base: Box::new(e),
                                    name,
                                    line: nline,
                                    col: ncol,
                                };
                            }
                        }
                        _ => {
                            self.bump(); // stray dot
                            return e;
                        }
                    }
                }
                "(" => {
                    self.bump();
                    let args = self.parse_comma_exprs(depth + 1, ")");
                    e = Expr::Call {
                        callee: Box::new(e),
                        args,
                    };
                }
                "[" => {
                    self.bump();
                    let mut items = self.parse_comma_exprs(depth + 1, "]");
                    let index = if items.len() == 1 {
                        items.pop().unwrap_or(Expr::Err)
                    } else {
                        Expr::Tuple(items)
                    };
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    };
                }
                "?" => {
                    self.bump();
                }
                _ => return e,
            }
        }
    }

    /// Parses comma/semicolon-separated expressions up to and including
    /// `close`. Stops (without consuming) at any other closing delimiter.
    fn parse_comma_exprs(&mut self, depth: u32, close: &str) -> Vec<Expr> {
        let mut out = Vec::new();
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > MAX_SKIP || self.done() {
                break;
            }
            if self.text(0) == close {
                self.bump();
                break;
            }
            if matches!(self.text(0), "," | ";") {
                self.bump();
                continue;
            }
            if matches!(self.text(0), ")" | "]" | "}") {
                break; // mismatched delimiter — give up on this list
            }
            let before = self.i;
            out.push(self.parse_expr(depth + 1, true));
            if self.i == before {
                self.bump(); // hard progress
            }
        }
        out
    }

    /// Expects `{`; parses a block expression (or returns [`Expr::Err`]).
    fn parse_brace_block(&mut self, depth: u32) -> Expr {
        if self.eat("{") {
            Expr::Block(self.parse_block_stmts(depth + 1))
        } else {
            Expr::Err
        }
    }

    // ---- small skippers -------------------------------------------------

    /// Skips a balanced delimiter pair starting at `open` (cursor on it).
    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 0i32;
        let mut guard = 0usize;
        while !self.done() {
            guard += 1;
            if guard > MAX_SKIP {
                return;
            }
            if self.text(0) == open {
                depth += 1;
            } else if self.text(0) == close {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Skips a generic-argument list starting at `<`. Bails at `;`/`{`
    /// so a misread comparison cannot eat a whole file.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        let mut guard = 0usize;
        while !self.done() {
            guard += 1;
            if guard > MAX_SKIP {
                return;
            }
            match self.text(0) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        self.bump();
                        return;
                    }
                }
                "(" => {
                    self.skip_balanced("(", ")");
                    continue;
                }
                ";" | "{" => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Collects identifiers inside a `<…>` list starting at `<`,
    /// consuming through the closing `>`.
    fn collect_angle_idents(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        let mut guard = 0usize;
        while !self.done() {
            guard += 1;
            if guard > MAX_SKIP {
                return out;
            }
            match self.text(0) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        self.bump();
                        return out;
                    }
                }
                ";" | "{" => return out,
                _ => {
                    if self.kind(0) == Some(TokenKind::Ident) {
                        out.push(self.text(0).to_string());
                    }
                }
            }
            self.bump();
        }
        out
    }

    /// Skips a `where` clause up to (not consuming) `{` or `;`.
    fn skip_where(&mut self) {
        self.bump(); // where
        let mut guard = 0usize;
        while !self.done() && self.text(0) != "{" && self.text(0) != ";" {
            guard += 1;
            if guard > MAX_SKIP {
                return;
            }
            if self.text(0) == "<" {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
    }

    /// Skips to and past the next top-level `;` (or stops before `}`).
    fn skip_to_semi(&mut self) {
        let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
        let mut guard = 0usize;
        while !self.done() {
            guard += 1;
            if guard > MAX_SKIP {
                return;
            }
            match self.text(0) {
                ";" if paren == 0 && bracket == 0 && brace == 0 => {
                    self.bump();
                    return;
                }
                "}" if paren == 0 && bracket == 0 && brace == 0 => return,
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" => brace += 1,
                "}" => brace -= 1,
                _ => {}
            }
            self.bump();
        }
    }

    /// Skips the type after `as` (sigils, one path, one generic list).
    fn skip_cast_type(&mut self) {
        let mut guard = 0usize;
        while matches!(self.text(0), "&" | "*" | "mut" | "const") {
            guard += 1;
            if guard > MAX_SKIP {
                return;
            }
            self.bump();
        }
        while (self.kind(0) == Some(TokenKind::Ident)
            && !matches!(self.text(0), "as" | "if" | "else" | "match" | "in"))
            || self.text(0) == "::"
        {
            guard += 1;
            if guard > MAX_SKIP {
                return;
            }
            self.bump();
            if self.text(0) == "<" {
                self.skip_angles();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn tree(src: &str) -> ParseTree {
        parse(&tokenize(src).tokens)
    }

    fn fn_named<'a>(t: &'a ParseTree, name: &str) -> &'a FnDef {
        let mut found = None;
        t.for_each_fn(&mut |f, _| {
            if f.name == name {
                found = Some(f as *const FnDef);
            }
        });
        // SAFETY: pointer derived from `t`, which outlives the call.
        unsafe { &*found.expect("fn present") }
    }

    fn collect_reads(f: &FnDef) -> Vec<String> {
        let mut reads = Vec::new();
        for e in &f.body {
            e.walk(&mut |n| {
                if let Expr::Field { name, .. } = n {
                    reads.push(name.clone());
                }
            });
        }
        reads
    }

    #[test]
    fn struct_fields_parse_with_types() {
        let t = tree("pub struct FleetReport { pub makespan_s: f64, pub retries: u64, pub replicas: Vec<ReplicaStats> }");
        let mut names = Vec::new();
        t.for_each_struct(&mut |s| {
            assert_eq!(s.name, "FleetReport");
            names = s
                .fields
                .iter()
                .map(|f| (f.name.clone(), f.ty.clone()))
                .collect();
        });
        assert_eq!(names.len(), 3);
        assert_eq!(names[0], ("makespan_s".into(), "f64".into()));
        assert_eq!(names[2].0, "replicas");
        assert!(names[2].1.contains("ReplicaStats"));
    }

    #[test]
    fn struct_literal_keys_are_not_field_reads() {
        let t = tree(
            "fn merge(r: &R) -> R {\n  let out = R { retries: 0, hedges: 0 };\n  let x = r.retries;\n  out\n}",
        );
        let f = fn_named(&t, "merge");
        let reads = collect_reads(f);
        assert_eq!(reads, vec!["retries"]); // the init keys don't count
    }

    #[test]
    fn method_calls_capture_turbofish_and_args() {
        let t = tree("fn total(xs: &[f64]) -> f64 { xs.iter().map(|o| o.ttft_s).sum::<f64>() }");
        let f = fn_named(&t, "total");
        let mut sums = 0;
        let mut maps_with_closure = 0;
        for e in &f.body {
            e.walk(&mut |n| {
                if let Expr::Method {
                    name,
                    turbofish,
                    args,
                    ..
                } = n
                {
                    if name == "sum" {
                        sums += 1;
                        assert_eq!(turbofish, &vec!["f64".to_string()]);
                    }
                    if name == "map" && matches!(args.first(), Some(Expr::Closure(_))) {
                        maps_with_closure += 1;
                    }
                }
            });
        }
        assert_eq!((sums, maps_with_closure), (1, 1));
    }

    #[test]
    fn match_arms_record_patterns_and_wildcards() {
        let t = tree(
            "fn h(e: SimError) -> u32 { match e { SimError::QueueFull { depth } => depth, _ => 0 } }",
        );
        let f = fn_named(&t, "h");
        let mut arms = Vec::new();
        for e in &f.body {
            e.walk(&mut |n| {
                if let Expr::Match(m) = n {
                    for a in &m.arms {
                        arms.push((a.pat_idents.clone(), a.wildcard));
                    }
                }
            });
        }
        assert_eq!(arms.len(), 2);
        assert!(arms[0].0.contains(&"SimError".to_string()));
        assert!(!arms[0].1);
        assert!(arms[1].1, "bare `_` arm detected");
    }

    #[test]
    fn impl_self_type_and_trait_impls_resolve() {
        let t = tree(
            "impl FleetReport { fn render(&self) -> String { format!(\"{}\", self.retries) } }\n\
             impl<'a> Display for ReplicaStats { fn fmt(&self) {} }",
        );
        let mut pairs = Vec::new();
        t.for_each_fn(&mut |f, ty| pairs.push((f.name.clone(), ty.unwrap_or("").to_string())));
        assert!(pairs.contains(&("render".into(), "FleetReport".into())));
        assert!(pairs.contains(&("fmt".into(), "ReplicaStats".into())));
    }

    #[test]
    fn macro_arguments_are_walked() {
        let t = tree("fn p(r: &R) { println!(\"{} {}\", r.events_processed, r.makespan_s); }");
        let reads = collect_reads(fn_named(&t, "p"));
        assert!(reads.contains(&"events_processed".to_string()));
        assert!(reads.contains(&"makespan_s".to_string()));
    }

    #[test]
    fn adjacency_operators_parse_as_binary() {
        let t = tree("fn c(a_s: f64, b_s: f64) -> bool { a_s <= b_s && a_s != b_s }");
        let f = fn_named(&t, "c");
        let mut ops = Vec::new();
        for e in &f.body {
            e.walk(&mut |n| {
                if let Expr::Binary { op, .. } = n {
                    ops.push(op.clone());
                }
            });
        }
        assert!(ops.contains(&"&&".to_string()));
        assert!(ops.contains(&"<=".to_string()));
        assert!(ops.contains(&"!=".to_string()));
    }

    #[test]
    fn shifts_are_not_comparison_soup() {
        let t = tree("fn s(x: u64, n: u32) -> u64 { (x << n) >> 2 }");
        let f = fn_named(&t, "s");
        let mut ops = Vec::new();
        for e in &f.body {
            e.walk(&mut |n| {
                if let Expr::Binary { op, .. } = n {
                    ops.push(op.clone());
                }
            });
        }
        assert_eq!(ops, vec![">>".to_string(), "<<".to_string()]);
    }

    #[test]
    fn generic_fn_signatures_do_not_derail_bodies() {
        let t = tree(
            "pub fn simulate<B: CostModel + ?Sized, F>(make: F) -> Vec<Option<f64>>\n\
             where F: Fn(usize) -> Box<dyn RouterPolicy> + Sync {\n  let x = inner.call();\n  Vec::new()\n}",
        );
        let f = fn_named(&t, "simulate");
        assert!(f.sig.contains("CostModel"));
        assert!(!f.body.is_empty());
    }

    #[test]
    fn depth_cap_degrades_not_panics() {
        let mut src = String::from("fn deep() { ");
        for _ in 0..200 {
            src.push_str("f(");
        }
        src.push('1');
        for _ in 0..200 {
            src.push(')');
        }
        src.push_str(" }");
        let _ = tree(&src); // must terminate without panicking
    }

    #[test]
    fn truncated_and_garbage_input_terminates() {
        let cases = [
            "fn f( {",
            "struct S { a: ",
            "match x { _ =>",
            "impl for {}{}{}",
            ")))]]]}}}",
            "let | | | = = =",
            "fn f() { x.. }",
            "'a 'b 'c",
        ];
        for c in cases {
            let _ = tree(c);
        }
    }

    #[test]
    fn enum_variants_collected() {
        let t = tree("pub enum FaultKind { Crash, Slowdown { factor: f64 }, Partition(u32) }");
        let mut variants = Vec::new();
        for item in &t.items {
            if let Item::Enum(e) = item {
                variants = e.variants.clone();
            }
        }
        assert_eq!(variants, vec!["Crash", "Slowdown", "Partition"]);
    }
}
