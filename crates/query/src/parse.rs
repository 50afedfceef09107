//! A hand-rolled recursive-descent parser for the boolean query language.
//!
//! Grammar (keywords case-insensitive; whitespace separates tokens):
//!
//! ```text
//! expr    := or
//! or      := and ( "OR" and )*
//! and     := unary ( "AND"? unary )*      // juxtaposition is implicit AND
//! unary   := "NOT" unary | primary
//! primary := TERM | "(" expr ")"
//! TERM    := [0-9]+ | "t" [0-9]+
//! ```
//!
//! `OR` binds loosest, implicit/explicit `AND` tighter, `NOT` tightest —
//! `a b OR c` parses as `(a AND b) OR c`, and `NOT a b` as `(NOT a) AND b`.
//! Terms are posting-list ids, written bare (`12`) or `t`-prefixed (`t12`).
//! A query nesting `(` and `NOT` deeper than 64 levels is a parse error:
//! the parser, the rewrites, the planner, the executor and the tree's
//! `Drop` recurse once per level, and one request frame must not overflow a
//! thread's stack.

use crate::ast::Expr;
use std::fmt;

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the query string.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Term(usize),
    And,
    Or,
    Not,
    LParen,
    RParen,
}

/// One lexed token plus where it started.
struct Spanned {
    tok: Tok,
    pos: usize,
}

/// How many tokens `bytes` can lex to, so the token list is allocated
/// once: one per parenthesis, and one per run of other non-space bytes
/// (which holds one word, or fails to lex).
fn max_tokens(bytes: &[u8]) -> usize {
    let mut count = 0;
    let mut after_break = true;
    for &c in bytes {
        let paren = c == b'(' || c == b')';
        let space = c.is_ascii_whitespace();
        count += usize::from(paren || (after_break && !space));
        after_break = paren || space;
    }
    count
}

fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::with_capacity(max_tokens(bytes));
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let pos = i;
        let tok = match c {
            b'(' => {
                i += 1;
                Tok::LParen
            }
            b')' => {
                i += 1;
                Tok::RParen
            }
            _ if c.is_ascii_digit() || c.is_ascii_alphabetic() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                let keyword = |k: &str| word.eq_ignore_ascii_case(k);
                match word {
                    _ if keyword("AND") => Tok::And,
                    _ if keyword("OR") => Tok::Or,
                    _ if keyword("NOT") => Tok::Not,
                    _ => {
                        // `t`-prefixed or bare decimal term id.
                        let digits = word
                            .strip_prefix(['t', 'T'])
                            .filter(|d| !d.is_empty())
                            .unwrap_or(word);
                        let term = digits.parse::<usize>().map_err(|_| ParseError {
                            pos,
                            msg: format!("expected a term id or keyword, found {word:?}"),
                        })?;
                        Tok::Term(term)
                    }
                }
            }
            _ => {
                // Only ASCII has been consumed, so `pos` starts a character.
                let found = src.get(pos..).and_then(|rest| rest.chars().next());
                return Err(ParseError {
                    pos,
                    msg: format!(
                        "unexpected character {:?}",
                        found.unwrap_or(char::REPLACEMENT_CHARACTER)
                    ),
                });
            }
        };
        toks.push(Spanned { tok, pos });
    }
    Ok(toks)
}

/// The deepest nesting of `(` and `NOT` a query may carry. The generated
/// workloads nest two levels at most.
const MAX_DEPTH: usize = 64;

struct Parser {
    toks: Vec<Spanned>,
    at: usize,
    end: usize,
    /// `(`s and `NOT`s enclosing the current token.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.at).map(|s| &s.tok)
    }

    fn pos(&self) -> usize {
        self.toks.get(self.at).map_or(self.end, |s| s.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.at).map(|s| s.tok.clone());
        self.at += t.is_some() as usize;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            pos: self.pos(),
            msg: msg.into(),
        })
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut children = vec![self.and_expr()?];
        while self.peek() == Some(&Tok::Or) {
            self.bump();
            children.push(self.and_expr()?);
        }
        Ok(if children.len() == 1 {
            // audit:allow(hot_path_panic): guarded by the children.len() == 1 branch condition
            children.pop().expect("one child")
        } else {
            Expr::Or(children)
        })
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut children = vec![self.unary()?];
        loop {
            match self.peek() {
                Some(&Tok::And) => {
                    self.bump();
                    children.push(self.unary()?);
                }
                // Juxtaposition: anything that can *start* a unary
                // continues the conjunction.
                Some(&Tok::Term(_)) | Some(&Tok::Not) | Some(&Tok::LParen) => {
                    children.push(self.unary()?);
                }
                _ => break,
            }
        }
        Ok(if children.len() == 1 {
            // audit:allow(hot_path_panic): guarded by the children.len() == 1 branch condition
            children.pop().expect("one child")
        } else {
            Expr::And(children)
        })
    }

    /// Every `(` and `NOT` recurses back here one level deeper.
    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.depth > MAX_DEPTH {
            return self.err(format!("nested deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let expr = if self.peek() == Some(&Tok::Not) {
            self.bump();
            self.unary().map(|e| Expr::Not(Box::new(e)))
        } else {
            self.primary()
        };
        self.depth -= 1;
        expr
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(&Tok::Term(t)) => {
                self.bump();
                Ok(Expr::Term(t))
            }
            Some(&Tok::LParen) => {
                self.bump();
                let inner = self.or_expr()?;
                if self.peek() == Some(&Tok::RParen) {
                    self.bump();
                    Ok(inner)
                } else {
                    self.err("expected `)`")
                }
            }
            Some(tok) => self.err(format!("expected a term or `(`, found {tok:?}")),
            None => self.err("unexpected end of query"),
        }
    }
}

/// Parses a boolean query string into an [`Expr`].
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src)?;
    if toks.is_empty() {
        return Err(ParseError {
            pos: 0,
            msg: "empty query".to_string(),
        });
    }
    let mut p = Parser {
        toks,
        at: 0,
        end: src.len(),
        depth: 0,
    };
    let expr = p.or_expr()?;
    if p.at < p.toks.len() {
        return p.err(format!(
            "trailing input after a complete expression (token {:?})",
            p.toks[p.at].tok
        ));
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: usize) -> Expr {
        Expr::Term(id)
    }

    #[test]
    fn token_list_is_sized_before_lexing() {
        for src in [
            "0 AND 1",
            "  (1 OR t2)AND NOT(3)  ",
            "((a",
            "x_1 and Or not",
            "",
            "1 $ 2",
        ] {
            let bound = max_tokens(src.as_bytes());
            if let Ok(toks) = lex(src) {
                assert_eq!(toks.len(), bound, "{src:?}");
                assert_eq!(toks.capacity(), bound, "{src:?}");
            }
            assert!(bound <= src.len());
        }
    }

    #[test]
    fn precedence_and_implicit_and() {
        // OR loosest, AND tighter, NOT tightest.
        assert_eq!(
            parse("1 2 OR 3").expect("parses"),
            Expr::Or(vec![Expr::And(vec![t(1), t(2)]), t(3)])
        );
        assert_eq!(
            parse("1 AND 2 OR 3 AND 4").expect("parses"),
            Expr::Or(vec![
                Expr::And(vec![t(1), t(2)]),
                Expr::And(vec![t(3), t(4)])
            ])
        );
        assert_eq!(
            parse("NOT 1 2").expect("parses"),
            Expr::And(vec![Expr::Not(Box::new(t(1))), t(2)])
        );
        assert_eq!(
            parse("1 2 3").expect("parses"),
            Expr::And(vec![t(1), t(2), t(3)])
        );
    }

    #[test]
    fn parens_override_precedence() {
        assert_eq!(
            parse("1 AND (2 OR 3)").expect("parses"),
            Expr::And(vec![t(1), Expr::Or(vec![t(2), t(3)])])
        );
        assert_eq!(
            parse("NOT (1 OR 2)").expect("parses"),
            Expr::Not(Box::new(Expr::Or(vec![t(1), t(2)])))
        );
        assert_eq!(parse("((7))").expect("parses"), t(7));
    }

    #[test]
    fn keywords_are_case_insensitive_and_terms_may_be_prefixed() {
        assert_eq!(
            parse("t1 and T2 oR 3 NoT 4").expect("parses"),
            parse("1 AND 2 OR 3 AND NOT 4").expect("parses")
        );
        assert_eq!(parse("t42").expect("parses"), t(42));
    }

    #[test]
    fn double_not_parses() {
        assert_eq!(
            parse("NOT NOT 5").expect("parses"),
            Expr::Not(Box::new(Expr::Not(Box::new(t(5)))))
        );
    }

    #[test]
    fn errors_carry_positions() {
        assert_eq!(parse("").expect_err("empty").pos, 0);
        assert_eq!(parse("   ").expect_err("blank").pos, 0);
        let e = parse("1 AND $").expect_err("bad char");
        assert_eq!(e.pos, 6);
        // A non-ASCII character is named whole, not by its first byte.
        let e = parse("0 AND é").expect_err("bad char");
        assert_eq!(e.pos, 6);
        assert!(e.msg.contains("'é'"), "{e}");
        let e = parse("(1 OR 2").expect_err("unclosed");
        assert!(e.msg.contains(')'), "{e}");
        assert!(parse("1 )").is_err(), "trailing close paren");
        assert!(parse("AND 1").is_err(), "leading AND");
        assert!(parse("1 OR").is_err(), "dangling OR");
        assert!(parse("NOT").is_err(), "dangling NOT");
        assert!(parse("txyz").is_err(), "non-numeric term");
        // `t` alone is not a term id.
        assert!(parse("t").is_err());
    }

    /// `MAX_DEPTH` nested `(`s or `NOT`s parse; one more is an error at the
    /// token nested past the bound, not a stack overflow.
    #[test]
    fn nesting_is_bounded() {
        let parens = |depth: usize| format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        let nots = |depth: usize| format!("{}1", "NOT ".repeat(depth));
        assert_eq!(parse(&parens(MAX_DEPTH)).expect("at the bound"), t(1));
        let e = parse(&parens(MAX_DEPTH + 1)).expect_err("past the bound");
        assert_eq!(e.pos, MAX_DEPTH + 1, "{e}");
        let not = parse(&nots(MAX_DEPTH)).expect("at the bound");
        assert!(matches!(not, Expr::Not(_)));
        let e = parse(&nots(MAX_DEPTH + 1)).expect_err("past the bound");
        assert_eq!(e.pos, 4 * (MAX_DEPTH + 1), "{e}");
        // Mixed nesting counts both kinds, and siblings do not add up.
        let mixed = format!("{}1{}", "NOT (".repeat(32), ")".repeat(32));
        assert!(parse(&mixed).is_ok());
        assert!(parse(&format!("NOT {mixed}")).is_err());
        let siblings = vec![parens(MAX_DEPTH); 3].join(" OR ");
        assert!(parse(&siblings).is_ok());
        // A request-sized frame of nesting is refused, not a crash: the
        // bound holds on a thread with a small stack.
        let deep = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let e1 = parse(&parens(5_000)).is_err();
                let e2 = parse(&"NOT ".repeat(4_000)).is_err();
                e1 && e2
            })
            .expect("spawns")
            .join()
            .expect("no stack overflow");
        assert!(deep);
    }
}
