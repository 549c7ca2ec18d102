//! Pretty-printer for the mini-Java IR, emitting valid `.mj` source.
//!
//! `parse(pretty(p))` must round-trip to an equal program; the synthetic
//! generator relies on this to dump its workloads as source files.

use crate::ir::{ClassDecl, MethodDecl, Name, Program, Stmt, VarRef};
use std::fmt::{self, Write as _};

/// Renders a whole program as `.mj` source, in a string with no spare
/// capacity: a caller may keep the text for as long as its parse.
pub fn pretty(program: &Program) -> String {
    let mut out = String::new();
    for c in &program.classes {
        pretty_class(c, &mut out);
        out.push('\n');
    }
    out.shrink_to_fit();
    out
}

fn pretty_class(c: &ClassDecl, out: &mut String) {
    if !c.is_application {
        out.push_str("lib ");
    }
    let _ = write!(out, "class {}", c.name);
    if let Some(s) = &c.superclass {
        let _ = write!(out, " extends {s}");
    }
    out.push_str(" {\n");
    for f in &c.fields {
        let _ = writeln!(out, "  field {}: {};", f.name, f.ty);
    }
    for f in &c.statics {
        let _ = writeln!(out, "  static field {}: {};", f.name, f.ty);
    }
    for m in &c.methods {
        pretty_method(m, out);
    }
    out.push_str("}\n");
}

fn pretty_method(m: &MethodDecl, out: &mut String) {
    out.push_str("  ");
    if m.is_static {
        out.push_str("static ");
    }
    let _ = write!(out, "method {}(", m.name);
    for (i, p) in m.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", p.name, p.ty);
    }
    out.push(')');
    if let Some(r) = &m.ret {
        let _ = write!(out, ": {r}");
    }
    out.push_str(" {\n");
    for l in &m.locals {
        let _ = writeln!(out, "    var {}: {};", l.name, l.ty);
    }
    for s in &m.body {
        out.push_str("    ");
        pretty_stmt(s, out);
        out.push('\n');
    }
    out.push_str("  }\n");
}

fn pretty_stmt(s: &Stmt, out: &mut String) {
    let _ = match s {
        Stmt::New { dst, ty } => write!(out, "{dst} = new {ty};"),
        Stmt::Assign { dst, src } => write!(out, "{dst} = {src};"),
        Stmt::Load { dst, base, field } => write!(out, "{dst} = {base}.{field};"),
        Stmt::Store { base, field, src } => write!(out, "{base}.{field} = {src};"),
        Stmt::ArrayLoad { dst, base } => write!(out, "{dst} = {base}[];"),
        Stmt::ArrayStore { base, src } => write!(out, "{base}[] = {src};"),
        Stmt::VirtualCall {
            dst,
            recv,
            method,
            args,
        } => pretty_call(dst, recv, method, args, out),
        Stmt::StaticCall {
            dst,
            class,
            method,
            args,
        } => pretty_call(dst, class, method, args, out),
        Stmt::Return { val: Some(v) } => write!(out, "return {v};"),
        Stmt::Return { val: None } => write!(out, "return;"),
    };
}

fn pretty_call(
    dst: &Option<VarRef>,
    callee: &dyn fmt::Display,
    method: &Name,
    args: &[VarRef],
    out: &mut String,
) -> fmt::Result {
    if let Some(d) = dst {
        write!(out, "{d} = ")?;
    }
    write!(out, "call {callee}.{method}(")?;
    for (i, a) in args.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(out, "{sep}{a}")?;
    }
    out.push_str(");");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn round_trip() {
        let src = r#"
            lib class Obj { }
            class A extends Obj {
                field f: Obj;
                static field g: Obj[];
                method m(e: Obj): Obj {
                    var t: Obj;
                    var u: Obj[];
                    t = new Obj;
                    u = new Obj[];
                    t = e;
                    t = this.f;
                    this.f = e;
                    t = u[];
                    u[] = e;
                    A.g = u;
                    u = A.g;
                    t = call this.m(e);
                    call this.m(t);
                    t = call A.s(e);
                    return t;
                }
                static method s(e: Obj): Obj {
                    return e;
                }
            }
        "#;
        let p1 = parse(src).unwrap();
        let printed = pretty(&p1);
        let p2 = parse(&printed).unwrap();
        assert_eq!(p1, p2, "pretty-printed program must re-parse identically");
    }

    #[test]
    fn void_call_and_empty_return() {
        let p = parse("class A { method m() { call this.m(); return; } }").unwrap();
        let txt = pretty(&p);
        assert!(txt.contains("call this.m();"));
        assert!(txt.contains("return;"));
    }
}
