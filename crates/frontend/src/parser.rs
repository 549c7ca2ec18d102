//! Recursive-descent parser for the `.mj` mini-Java format.
//!
//! ```text
//! program := class*
//! class   := ("app" | "lib")? "class" IDENT ("extends" IDENT)? "{" member* "}"
//! member  := "static"? "field" IDENT ":" type ";"
//!          | "static"? "method" IDENT "(" params? ")" (":" type)? "{" local* stmt* "}"
//! local   := "var" IDENT ":" type ";"
//! type    := ("int" | IDENT) ("[" "]")*
//! stmt    := varref "=" "new" type ";"
//!          | varref "=" "call" callee ";"
//!          | varref "=" varref ";"                 (assign / load / static read)
//!          | varref "." IDENT "=" varref ";"       (store)
//!          | varref "[" "]" "=" varref ";"         (array store)
//!          | varref "=" varref "[" "]" ";"         (array load)
//!          | "call" callee ";"
//!          | "return" varref? ";"
//! callee  := IDENT "." IDENT "(" (varref ("," varref)*)? ")"
//! varref  := IDENT | IDENT "." IDENT      (the latter is Class.static if the
//!                                          base names a class)
//! ```
//!
//! Instance methods implicitly receive a `this` parameter of the enclosing
//! class type. Whether `a.b` is a static-field reference or a field access
//! is decided by whether `a` names a class anywhere in the source, as a
//! Java compiler's symbol table would (see [`parse`]). Array ranks stop at
//! [`MAX_ARRAY_RANK`].

use crate::ir::{
    ClassDecl, FieldDecl, LocalDecl, MethodDecl, Name, Program, Stmt, TypeRef, VarRef,
};
use crate::lexer::{LexError, Lexer, Spanned, Tok};
use std::collections::HashMap;
use std::fmt;

/// The highest array rank a type may have: the JVM's own limit (JVMS
/// §4.3.2).
pub const MAX_ARRAY_RANK: usize = 255;

/// A parse error with where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column within the line.
    pub col: u32,
    /// Description of what went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        let msg = format!("unexpected character {:?}", e.ch);
        ParseError {
            line: e.line,
            col: e.col,
            msg,
        }
    }
}

/// Parses a complete `.mj` program.
///
/// One pass, optimistically: a name counts as a class once its `class NAME`
/// pair has been read. Only an error, or a name read as a variable in
/// `name.x` before a class of that name is declared, costs a second pass
/// with every class name collected up front — which is also how a lexical
/// error anywhere wins over a parse error, as if the source were lexed
/// first.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let mut optimistic = Parser::new(src);
    if let Ok(program) = optimistic.program() {
        if !optimistic.names.values().any(|n| n.class && n.variable) {
            return Ok(program);
        }
    }
    let mut exact = Parser::new(src);
    for class in class_names(src)? {
        exact.entry(class).class = true;
    }
    exact.program()
}

/// Every `NAME` of a `class NAME` token pair, read by lexing all of `src`.
fn class_names(src: &str) -> Result<Vec<&str>, LexError> {
    let (mut lexer, mut names, mut after_class) = (Lexer::new(src), Vec::new(), false);
    loop {
        match lexer.next_token()?.tok {
            Tok::Eof => return Ok(names),
            Tok::Ident(s) => {
                if after_class {
                    names.push(s);
                }
                after_class = s == "class";
            }
            _ => after_class = false,
        }
    }
}

/// An interned spelling and what the parse has read of it.
struct Interned {
    name: Name,
    /// Read as the `NAME` of a `class NAME` pair.
    class: bool,
    /// Read as the variable of `NAME.x` while not known as a class.
    variable: bool,
}

struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The lookahead token.
    tok: Spanned<'src>,
    /// Each distinct identifier spelling, interned once.
    names: HashMap<&'src str, Interned>,
    /// Reused buffers for the lists of one method: each list is read into
    /// its buffer and moved out at exactly its length (see [`exact`]).
    decls: Vec<LocalDecl>,
    stmts: Vec<Stmt>,
    args: Vec<VarRef>,
}

/// Moves `buf`'s items into a vector whose capacity is exactly their count,
/// leaving `buf` empty with its capacity kept for the next list. The parsed
/// program is live until its graph is built, so it keeps no growth slack.
fn exact<T>(buf: &mut Vec<T>) -> Vec<T> {
    let mut list = Vec::with_capacity(buf.len());
    list.append(buf);
    list
}

impl<'src> Parser<'src> {
    fn new(src: &'src str) -> Self {
        Parser {
            lexer: Lexer::new(src),
            tok: Spanned {
                tok: Tok::Eof,
                line: 1,
                col: 1,
            },
            names: HashMap::new(),
            decls: Vec::new(),
            stmts: Vec::new(),
            args: Vec::new(),
        }
    }

    fn peek(&self) -> Tok<'src> {
        self.tok.tok
    }

    fn bump(&mut self) -> Result<(), ParseError> {
        let next = self.lexer.next_token()?;
        if let (Tok::Ident("class"), Tok::Ident(name)) = (self.tok.tok, next.tok) {
            self.entry(name).class = true;
        }
        self.tok = next;
        Ok(())
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let (line, col, msg) = (self.tok.line, self.tok.col, msg.into());
        Err(ParseError { line, col, msg })
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump()
        } else {
            self.err(format!("expected {}, found {}", want, self.peek()))
        }
    }

    /// Consumes `want` if it is next.
    fn eat(&mut self, want: Tok<'_>) -> Result<bool, ParseError> {
        let found = self.peek() == want;
        if found {
            self.bump()?;
        }
        Ok(found)
    }

    fn ident(&mut self) -> Result<&'src str, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump()?;
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn entry(&mut self, s: &'src str) -> &mut Interned {
        self.names.entry(s).or_insert_with(|| Interned {
            name: s.into(),
            class: false,
            variable: false,
        })
    }

    fn intern(&mut self, s: &'src str) -> Name {
        self.entry(s).name.clone()
    }

    /// The `base` of `base.x`, and whether it is a class as far as the
    /// parse has read.
    fn base(&mut self, base: &'src str) -> (Name, bool) {
        let e = self.entry(base);
        e.variable |= !e.class;
        (e.name.clone(), e.class)
    }

    fn name(&mut self) -> Result<Name, ParseError> {
        let s = self.ident()?;
        Ok(self.intern(s))
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        self.bump()?;
        let mut classes = Vec::new();
        while self.peek() != Tok::Eof {
            classes.push(self.class()?);
        }
        Ok(Program { classes })
    }

    fn class(&mut self) -> Result<ClassDecl, ParseError> {
        let is_application = !self.eat(Tok::Ident("lib"))?;
        if is_application {
            self.eat(Tok::Ident("app"))?; // optional; application is the default
        }
        if !self.eat(Tok::Ident("class"))? {
            return self.err(format!("expected `class`, found {}", self.peek()));
        }
        let name = self.name()?;
        let superclass = if self.eat(Tok::Ident("extends"))? {
            Some(self.name()?)
        } else {
            None
        };
        self.expect(Tok::LBrace)?;
        let (mut fields, mut statics, mut methods) = (Vec::new(), Vec::new(), Vec::new());
        while self.peek() != Tok::RBrace {
            let is_static = self.eat(Tok::Ident("static"))?;
            if self.eat(Tok::Ident("field"))? {
                let (name, ty) = self.decl()?;
                self.expect(Tok::Semi)?;
                let decl = FieldDecl { name, ty };
                if is_static {
                    statics.push(decl);
                } else {
                    fields.push(decl);
                }
            } else if self.eat(Tok::Ident("method"))? {
                methods.push(self.method(is_static)?);
            } else {
                let found = self.peek();
                return self.err(format!("expected `field` or `method`, found {found}"));
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(ClassDecl {
            name,
            superclass,
            is_application,
            fields,
            statics,
            methods,
        })
    }

    /// `IDENT ":" type`.
    fn decl(&mut self) -> Result<(Name, TypeRef), ParseError> {
        let name = self.name()?;
        self.expect(Tok::Colon)?;
        Ok((name, self.type_ref()?))
    }

    fn method(&mut self, is_static: bool) -> Result<MethodDecl, ParseError> {
        let name = self.name()?;
        self.expect(Tok::LParen)?;
        if self.peek() != Tok::RParen {
            loop {
                let (name, ty) = self.decl()?;
                self.decls.push(LocalDecl { name, ty });
                if !self.eat(Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let params = exact(&mut self.decls);
        let ret = if self.eat(Tok::Colon)? {
            Some(self.type_ref()?)
        } else {
            None
        };
        self.expect(Tok::LBrace)?;
        while self.eat(Tok::Ident("var"))? {
            let (name, ty) = self.decl()?;
            self.expect(Tok::Semi)?;
            self.decls.push(LocalDecl { name, ty });
        }
        let locals = exact(&mut self.decls);
        while self.peek() != Tok::RBrace {
            let stmt = self.stmt()?;
            self.stmts.push(stmt);
        }
        self.expect(Tok::RBrace)?;
        let body = exact(&mut self.stmts);
        Ok(MethodDecl {
            name,
            is_static,
            params,
            ret,
            locals,
            body,
        })
    }

    fn type_ref(&mut self) -> Result<TypeRef, ParseError> {
        let mut ty = match self.ident()? {
            "int" => TypeRef::Int,
            base => TypeRef::Class(self.intern(base)),
        };
        let mut rank = 0;
        while self.peek() == Tok::LBracket {
            if rank == MAX_ARRAY_RANK {
                return self.err(format!("array rank exceeds {MAX_ARRAY_RANK}"));
            }
            rank += 1;
            self.bump()?;
            self.expect(Tok::RBracket)?;
            ty = TypeRef::Array(Box::new(ty));
        }
        Ok(ty)
    }

    /// Parses `IDENT` or `IDENT . IDENT`; classifies `Class.x` as a static
    /// reference. Returns `(varref, trailing_field)`: for a non-class base,
    /// `a.b` yields `(Local(a), Some(b))` so callers can build loads/stores.
    fn place(&mut self) -> Result<(VarRef, Option<Name>), ParseError> {
        let base = self.ident()?;
        if !self.eat(Tok::Dot)? {
            return Ok((VarRef::Local(self.intern(base)), None));
        }
        let member = self.name()?;
        match self.base(base) {
            (class, true) => Ok((VarRef::Static(class, member), None)),
            (local, false) => Ok((VarRef::Local(local), Some(member))),
        }
    }

    /// A place with no trailing field access; `what` names the position.
    fn simple(&mut self, what: &str) -> Result<VarRef, ParseError> {
        match self.place()? {
            (v, None) => Ok(v),
            (_, Some(_)) => self.err(format!("{what} must be a simple variable")),
        }
    }

    fn call_args(&mut self) -> Result<Box<[VarRef]>, ParseError> {
        self.expect(Tok::LParen)?;
        if self.peek() != Tok::RParen {
            loop {
                let (v, field) = self.place()?;
                if field.is_some() {
                    return self.err("field accesses are not allowed as call arguments");
                }
                self.args.push(v);
                if !self.eat(Tok::Comma)? {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(exact(&mut self.args).into_boxed_slice())
    }

    /// Parses `callee(args);` where callee is `recv.method` or
    /// `Class.method`.
    fn call(&mut self, dst: Option<VarRef>) -> Result<Stmt, ParseError> {
        let base = self.ident()?;
        self.expect(Tok::Dot)?;
        let method = self.name()?;
        let args = self.call_args()?;
        self.expect(Tok::Semi)?;
        let (class, is_class) = self.base(base);
        Ok(if is_class {
            Stmt::StaticCall {
                dst,
                class,
                method,
                args,
            }
        } else {
            Stmt::VirtualCall {
                dst,
                recv: VarRef::Local(class),
                method,
                args,
            }
        })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat(Tok::Ident("return"))? {
            let val = if self.peek() == Tok::Semi {
                None
            } else {
                let (v, field) = self.place()?;
                if field.is_some() {
                    return self.err("cannot return a field access; load into a local first");
                }
                Some(v)
            };
            self.expect(Tok::Semi)?;
            return Ok(Stmt::Return { val });
        }
        if self.eat(Tok::Ident("call"))? {
            return self.call(None);
        }

        // An assignment-like statement. Parse the left-hand side.
        let (lhs, lhs_field) = self.place()?;
        if self.peek() == Tok::LBracket {
            // `x[] = y;`
            if lhs_field.is_some() {
                return self.err("array store base must be a simple variable");
            }
            self.bump()?;
            self.expect(Tok::RBracket)?;
            self.expect(Tok::Eq)?;
            let src = self.simple("array store source")?;
            self.expect(Tok::Semi)?;
            return Ok(Stmt::ArrayStore { base: lhs, src });
        }
        if let Some(field) = lhs_field {
            // `x.f = y;`
            self.expect(Tok::Eq)?;
            let src = self.simple("store source")?;
            self.expect(Tok::Semi)?;
            return Ok(Stmt::Store {
                base: lhs,
                field,
                src,
            });
        }

        // `lhs = ...`
        self.expect(Tok::Eq)?;
        if self.eat(Tok::Ident("new"))? {
            let ty = self.type_ref()?;
            self.expect(Tok::Semi)?;
            return Ok(Stmt::New { dst: lhs, ty });
        }
        if self.eat(Tok::Ident("call"))? {
            return self.call(Some(lhs));
        }
        let (rhs, rhs_field) = self.place()?;
        if self.peek() == Tok::LBracket {
            if rhs_field.is_some() {
                return self.err("array load base must be a simple variable");
            }
            self.bump()?;
            self.expect(Tok::RBracket)?;
            self.expect(Tok::Semi)?;
            return Ok(Stmt::ArrayLoad {
                dst: lhs,
                base: rhs,
            });
        }
        self.expect(Tok::Semi)?;
        Ok(match rhs_field {
            Some(field) => Stmt::Load {
                dst: lhs,
                base: rhs,
                field,
            },
            None => Stmt::Assign { dst: lhs, src: rhs },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_class() {
        let p = parse("class A { }").unwrap();
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.classes[0].name, "A");
        assert!(p.classes[0].is_application);
    }

    #[test]
    fn parses_lib_and_extends() {
        let p = parse("lib class B extends A { }").unwrap();
        assert!(!p.classes[0].is_application);
        assert_eq!(p.classes[0].superclass.as_deref(), Some("A"));
    }

    #[test]
    fn parses_fields_and_statics() {
        let p = parse("class A { field x: A; static field g: A[]; field n: int; }").unwrap();
        let c = &p.classes[0];
        assert_eq!(c.fields.len(), 2);
        assert_eq!(c.statics.len(), 1);
        assert_eq!(
            c.statics[0].ty,
            TypeRef::Array(Box::new(TypeRef::Class("A".into())))
        );
    }

    #[test]
    fn parses_method_statements() {
        let src = r#"
            class Obj { }
            class A {
                static field g: Obj;
                method m(e: Obj): Obj {
                    var t: Obj;
                    var u: Obj;
                    t = new Obj;
                    u = t;
                    u = this.f;
                    this.f = e;
                    u = t[];
                    t[] = e;
                    A.g = t;
                    u = A.g;
                    u = call t.m(e);
                    call t.m(e);
                    u = call A.s(e);
                    return u;
                }
            }
        "#;
        let p = parse(src).unwrap();
        let m = &p.classes[1].methods[0];
        assert_eq!(m.locals.len(), 2);
        assert_eq!(m.body.len(), 12);
        assert!(matches!(m.body[0], Stmt::New { .. }));
        assert!(matches!(m.body[1], Stmt::Assign { .. }));
        assert!(matches!(m.body[2], Stmt::Load { .. }));
        assert!(matches!(m.body[3], Stmt::Store { .. }));
        assert!(matches!(m.body[4], Stmt::ArrayLoad { .. }));
        assert!(matches!(m.body[5], Stmt::ArrayStore { .. }));
        assert!(matches!(
            m.body[6],
            Stmt::Assign {
                dst: VarRef::Static(..),
                ..
            }
        ));
        assert!(matches!(
            m.body[7],
            Stmt::Assign {
                src: VarRef::Static(..),
                ..
            }
        ));
        assert!(matches!(m.body[8], Stmt::VirtualCall { dst: Some(_), .. }));
        assert!(matches!(m.body[9], Stmt::VirtualCall { dst: None, .. }));
        assert!(matches!(m.body[10], Stmt::StaticCall { .. }));
        assert!(matches!(m.body[11], Stmt::Return { val: Some(_) }));
    }

    #[test]
    fn classes_declared_later_are_classes_too() {
        let p = parse("class A { method m() { var t: B; t = B.g; } } class B { }").unwrap();
        let src = VarRef::Static("B".into(), "g".into());
        assert_eq!(
            p.classes[0].methods[0].body,
            [Stmt::Assign {
                dst: VarRef::Local("t".into()),
                src
            }]
        );
    }

    #[test]
    fn error_reports_line() {
        let err = parse("class A {\n junk\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn constructor_names() {
        let p = parse("class A { method <init>() { return; } }").unwrap();
        assert_eq!(p.classes[0].methods[0].name, "<init>");
    }

    #[test]
    fn static_method_flag() {
        let p = parse("class A { static method m() { } method n() { } }").unwrap();
        assert!(p.classes[0].methods[0].is_static);
        assert!(!p.classes[0].methods[1].is_static);
    }
}

#[cfg(test)]
mod error_tests {
    use super::parse;

    fn err(src: &str) -> String {
        parse(src).unwrap_err().to_string()
    }

    #[test]
    fn missing_semicolons_and_braces() {
        assert!(err("class A { method m() { return } }").contains("expected"));
        assert!(err("class A { field x: A }").contains("expected"));
        assert!(err("class A { method m() {").contains("expected"));
    }

    #[test]
    fn bad_member_and_type() {
        assert!(err("class A { banana x; }").contains("field"));
        assert!(err("class A { field x: ; }").contains("identifier"));
    }

    #[test]
    fn call_argument_restrictions() {
        assert!(err("class A { method m(x: A) { call x.m(x.f); } }").contains("call arguments"));
    }

    #[test]
    fn chained_field_access_rejected() {
        // a.b.c is not expressible; the error surfaces at the second dot.
        assert!(parse("class A { method m() { var t: A; t = t.f.g; } }").is_err());
    }

    #[test]
    fn empty_input_is_empty_program() {
        let p = parse("").unwrap();
        assert!(p.classes.is_empty());
        let p = parse("  // just a comment\n").unwrap();
        assert!(p.classes.is_empty());
    }

    #[test]
    fn array_rank_is_bounded_by_the_jvm_limit() {
        let program = |rank: usize| format!("class A {{ field x: A{}; }}", "[]".repeat(rank));
        assert!(parse(&program(255)).is_ok());
        let e = parse(&program(256)).unwrap_err();
        // Reported at the 256th `[`.
        assert_eq!((e.line, e.col), (1, 21 + 2 * 255));
        assert!(e.msg.contains("rank exceeds 255"));
        assert!(parse(&program(200_000)).is_err());
    }

    #[test]
    fn errors_carry_columns() {
        let e = parse("class A {\n  junk\n}").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3));
        assert!(e.to_string().starts_with("line 2, col 3: expected"));
        // A lexical error anywhere wins over an earlier parse error.
        let e = parse("class { }\n #").unwrap_err();
        assert_eq!((e.line, e.col), (2, 2));
    }

    #[test]
    fn return_of_field_access_rejected() {
        assert!(err("class A { method m(): A { return this.f; } }").contains("load into a local"));
    }
}
