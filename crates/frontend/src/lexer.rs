//! Pull lexer for the `.mj` mini-Java textual format: a cursor over the
//! source bytes that hands out one token per call, identifiers as slices
//! of the source with the hash their [`Name`](crate::ir::Name) will carry,
//! folded in the same scan — nothing is allocated.

use crate::ir::NameHasher;
use std::fmt;

/// A lexical token.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Tok<'src> {
    /// Identifier or keyword candidate.
    Ident(&'src str),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token paired with where it starts.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Spanned<'src> {
    /// The token.
    pub(crate) tok: Tok<'src>,
    /// An identifier's hash ([`NameHasher::of`] its text); 0 for any other
    /// token.
    pub(crate) hash: u64,
    /// 1-based source line.
    pub(crate) line: u32,
    /// 1-based byte column within the line.
    pub(crate) col: u32,
}

/// A lexing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// 1-based source line of the offending character.
    pub(crate) line: u32,
    /// 1-based byte column of the offending character.
    pub(crate) col: u32,
    /// The offending character.
    pub(crate) ch: char,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (line, col, ch) = (self.line, self.col, self.ch);
        write!(f, "line {line}, col {col}: unexpected character {ch:?}")
    }
}

impl std::error::Error for LexError {}

/// The lexer: supports `//` line comments, and `<` `>` `$` inside
/// identifiers (for constructor names like `<init>`). A digit starts an
/// identifier too (`_200_check`, `200x`), which then takes only letters,
/// digits and `_`.
pub(crate) struct Lexer<'src> {
    src: &'src str,
    pos: usize,
    line: u32,
    line_start: usize,
    hasher: NameHasher,
}

impl<'src> Lexer<'src> {
    /// A lexer at the start of `src`.
    pub(crate) fn new(src: &'src str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            line_start: 0,
            hasher: NameHasher::new(),
        }
    }

    /// The next token; [`Tok::Eof`] at the end, and again on every call
    /// after it.
    pub(crate) fn next_token(&mut self) -> Result<Spanned<'src>, LexError> {
        let bytes = self.src.as_bytes();
        loop {
            let start = self.pos;
            let Some(&b) = bytes.get(start) else {
                return Ok(self.spanned(Tok::Eof, 0, start));
            };
            self.pos += 1;
            let tok = match b {
                b'\n' => {
                    self.line += 1;
                    self.line_start = self.pos;
                    continue;
                }
                b'\t' | b'\x0b' | b'\x0c' | b'\r' | b' ' => continue,
                b'/' if bytes.get(self.pos) == Some(&b'/') => {
                    let rest = &bytes[self.pos..];
                    self.pos += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                    continue;
                }
                b'{' => Tok::LBrace,
                b'}' => Tok::RBrace,
                b'(' => Tok::LParen,
                b')' => Tok::RParen,
                b'[' => Tok::LBracket,
                b']' => Tok::RBracket,
                b':' => Tok::Colon,
                b';' => Tok::Semi,
                b',' => Tok::Comma,
                b'.' => Tok::Dot,
                b'=' => Tok::Eq,
                b'0'..=b'9' => {
                    return Ok(self.ident(start, |c| c.is_ascii_alphanumeric() || c == b'_'))
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'<' => {
                    return Ok(self.ident(start, |c| {
                        c.is_ascii_alphanumeric() || matches!(c, b'_' | b'<' | b'>' | b'$')
                    }))
                }
                _ => {
                    // Anything else is an error, bar non-ASCII whitespace.
                    let ch = self.src[start..].chars().next().unwrap_or('\0');
                    if ch.is_whitespace() {
                        self.pos = start + ch.len_utf8();
                        continue;
                    }
                    let col = self.col(start);
                    return Err(LexError {
                        line: self.line,
                        col,
                        ch,
                    });
                }
            };
            return Ok(self.spanned(tok, 0, start));
        }
    }

    /// The identifier starting at `start` and running while `more` holds,
    /// hashed byte by byte as it is scanned.
    #[inline]
    fn ident(&mut self, start: usize, more: impl Fn(u8) -> bool) -> Spanned<'src> {
        let bytes = self.src.as_bytes();
        let mut state = NameHasher::step(self.hasher.start(), bytes[start]);
        let mut end = self.pos;
        while let Some(&c) = bytes.get(end).filter(|&&c| more(c)) {
            state = NameHasher::step(state, c);
            end += 1;
        }
        self.pos = end;
        let hash = self.hasher.finish(state, end - start);
        self.spanned(Tok::Ident(&self.src[start..end]), hash, start)
    }

    fn col(&self, at: usize) -> u32 {
        (at - self.line_start + 1) as u32
    }

    fn spanned(&self, tok: Tok<'src>, hash: u64, at: usize) -> Spanned<'src> {
        let (line, col) = (self.line, self.col(at));
        Spanned {
            tok,
            hash,
            line,
            col,
        }
    }
}

/// Tokenises all of `src`, ending with an end-of-input token.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let t = lexer.next_token()?;
        toks.push(t);
        if t.tok == Tok::Eof {
            return Ok(toks);
        }
    }
}

/// The number of tokens [`lex`] would return, counted as they stream by:
/// lexing alone, without the vector that keeps them.
pub fn count_tokens(src: &str) -> Result<usize, LexError> {
    let mut lexer = Lexer::new(src);
    let mut count = 1;
    while lexer.next_token()?.tok != Tok::Eof {
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        use Tok::*;
        assert_eq!(
            kinds("x = y.f;"),
            [Ident("x"), Eq, Ident("y"), Dot, Ident("f"), Semi, Eof]
        );
    }

    #[test]
    fn counting_streams_what_lex_keeps() {
        for src in ["", "x = y.f; // c", "class A { }\n"] {
            assert_eq!(count_tokens(src), Ok(lex(src).unwrap().len()));
        }
        assert!(count_tokens("a # b").is_err());
    }

    #[test]
    fn comments_and_lines() {
        let toks = lex("a // comment\nb").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks.len(), 3);
        // Columns are per line; non-ASCII whitespace separates tokens.
        let toks = lex("a\n  b\u{a0}c").unwrap();
        assert_eq!([toks[1].col, toks[2].col], [3, 6]);
    }

    #[test]
    fn angle_bracket_identifiers() {
        assert_eq!(kinds("<init>")[0], Tok::Ident("<init>"));
    }

    #[test]
    fn array_brackets() {
        let want = [Tok::Ident("Obj"), Tok::LBracket, Tok::RBracket, Tok::Eof];
        assert_eq!(kinds("Obj[]"), want);
    }

    #[test]
    fn rejects_garbage() {
        let err = lex("a # b").unwrap_err();
        assert_eq!((err.ch, err.line, err.col), ('#', 1, 3));
        assert!(err.to_string().contains("unexpected"));
        assert_eq!(
            lex("x\n é").unwrap_err(),
            LexError {
                line: 2,
                col: 2,
                ch: 'é'
            }
        );
        assert_eq!(lex("/").unwrap_err().ch, '/');
    }

    #[test]
    fn identifiers_carry_their_names_hash() {
        let hasher = NameHasher::new();
        for t in lex("x = _200_check.<init>; // c\n 2<x$").unwrap() {
            match t.tok {
                Tok::Ident(s) => assert_eq!(t.hash, hasher.of(s), "{s}"),
                _ => assert_eq!(t.hash, 0),
            }
        }
    }

    #[test]
    fn leading_digit_identifier() {
        assert_eq!(kinds("_200_check")[0], Tok::Ident("_200_check"));
        assert_eq!(kinds("200x")[0], Tok::Ident("200x"));
        assert_eq!(kinds("2<x")[..2], [Tok::Ident("2"), Tok::Ident("<x")]);
    }
}
