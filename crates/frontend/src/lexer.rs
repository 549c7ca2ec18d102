//! Pull lexer for the `.mj` mini-Java textual format: a cursor over the
//! source bytes that hands out one token per call, identifiers as slices
//! of the source — nothing is allocated.

use std::fmt;

/// A lexical token.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Tok<'src> {
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
    pub tok: Tok<'src>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column within the line.
    pub col: u32,
}

/// A lexing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// 1-based source line of the offending character.
    pub line: u32,
    /// 1-based byte column of the offending character.
    pub col: u32,
    /// The offending character.
    pub ch: char,
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
}

impl<'src> Lexer<'src> {
    /// A lexer at the start of `src`.
    pub(crate) fn new(src: &'src str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    /// The next token; [`Tok::Eof`] at the end, and again on every call
    /// after it.
    pub(crate) fn next_token(&mut self) -> Result<Spanned<'src>, LexError> {
        let bytes = self.src.as_bytes();
        loop {
            let start = self.pos;
            let Some(&b) = bytes.get(start) else {
                return Ok(self.spanned(Tok::Eof, start));
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
                b'0'..=b'9' => self.ident(start, |c| c.is_ascii_alphanumeric() || c == b'_'),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'<' => self.ident(start, |c| {
                    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'<' | b'>' | b'$')
                }),
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
            return Ok(self.spanned(tok, start));
        }
    }

    /// The identifier starting at `start` and running while `more` holds.
    fn ident(&mut self, start: usize, more: fn(u8) -> bool) -> Tok<'src> {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&c| !more(c)).unwrap_or(rest.len());
        Tok::Ident(&self.src[start..self.pos])
    }

    fn col(&self, at: usize) -> u32 {
        (at - self.line_start + 1) as u32
    }

    fn spanned(&self, tok: Tok<'src>, at: usize) -> Spanned<'src> {
        let (line, col) = (self.line, self.col(at));
        Spanned { tok, line, col }
    }
}

/// Tokenises all of `src`, ending with [`Tok::Eof`].
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
    fn leading_digit_identifier() {
        assert_eq!(kinds("_200_check")[0], Tok::Ident("_200_check"));
        assert_eq!(kinds("200x")[0], Tok::Ident("200x"));
        assert_eq!(kinds("2<x")[..2], [Tok::Ident("2"), Tok::Ident("<x")]);
    }
}
