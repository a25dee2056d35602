//! A parser for KFOPCE formulas in a readable ASCII syntax.
//!
//! # Grammar
//!
//! ```text
//! formula  := iff
//! iff      := implies ( "<->" implies )*
//! implies  := or ( "->" implies )?            (right associative)
//! or       := and ( "|" and )*
//! and      := unary ( "&" unary )*
//! unary    := "~" unary | "K" unary
//!           | ("forall" | "all") var+ "." formula
//!           | ("exists" | "some") var+ "." formula
//!           | atom | "(" formula ")"
//! atom     := ident ( "(" term ("," term)* ")" )?      — predicate
//!           | term "=" term | term "!=" term
//! term     := ident
//! ```
//!
//! # Variables vs. parameters
//!
//! Following the paper's notational conventions, an identifier in term
//! position is a **variable** iff it is one of `u v w x y z` optionally
//! followed by digits (e.g. `x`, `y1`), or it is bound by an enclosing
//! quantifier; every other identifier denotes a **parameter** (`John`,
//! `Math`, `a`, `p1`, …). An identifier in predicate-application or bare
//! formula position is a predicate symbol.
//!
//! # Nesting
//!
//! A formula nests no deeper than [`MAX_NESTING`] levels: each `~`, `K`,
//! quantified variable, parenthesis and link of a binary chain on a path
//! is one. The parser refuses deeper input before it descends further, so
//! no request line, however long, recurses past the bound — here or in
//! the walks that later run over what it built.

use crate::formula::{Atom, Formula, MAX_NESTING};
use crate::symbols::{Param, Pred, Var};
use crate::term::Term;
use std::fmt;

/// Why an atom with more arguments than [`Pred::MAX_ARITY`] is refused.
const TOO_MANY_ARGUMENTS: &str = "a predicate takes at most 255 arguments";

/// Error produced when parsing fails, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset in the source text where the error was noticed.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A token; an identifier borrows its text from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    LParen,
    RParen,
    Comma,
    Dot,
    Not,
    And,
    Or,
    Implies,
    Iff,
    Eq,
    Neq,
}

/// The tokens of one line, pulled by the parser one at a time: nothing
/// is collected. The first character no token starts with ends the
/// stream and is kept as the error, which [`parse`] reports in place of
/// whatever the parser made of the tokens before it — so the diagnostics
/// are those of lexing the whole line up front.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    error: Option<ParseError>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            error: None,
        }
    }

    /// The next token and its byte offset; `None` at the end of the input
    /// or at a character no token starts with (then left in `error`).
    fn next_token(&mut self) -> Option<(Tok<'a>, usize)> {
        let (src, bytes) = (self.src, self.src.as_bytes());
        let starts_name = |b: &u8| b.is_ascii_alphabetic() || *b == b'_';
        while bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
        let start = self.pos;
        let b = *bytes.get(start)?;
        let (tok, len) = match b {
            b'(' => (Tok::LParen, 1),
            b')' => (Tok::RParen, 1),
            b',' => (Tok::Comma, 1),
            b'.' => (Tok::Dot, 1),
            b'~' => (Tok::Not, 1),
            b'&' => (Tok::And, 1),
            b'|' => (Tok::Or, 1),
            b'=' => (Tok::Eq, 1),
            b'!' if bytes.get(start + 1) == Some(&b'=') => (Tok::Neq, 2),
            b'!' => (Tok::Not, 1),
            b'-' if bytes.get(start + 1) == Some(&b'>') => (Tok::Implies, 2),
            b'<' if src[start..].starts_with("<->") => (Tok::Iff, 3),
            _ if starts_name(&b) || b == b'$' && bytes.get(start + 1).is_some_and(starts_name) => {
                // `$` introduces an identifier (the forced-parameter
                // escape) but may not continue one. What follows it
                // starts a name as any identifier does, so the name
                // prints back to text that parses.
                let mut end = start + usize::from(b == b'$');
                while bytes
                    .get(end)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'\'' | b'#'))
                {
                    end += 1;
                }
                (Tok::Ident(&src[start..end]), end - start)
            }
            _ => {
                // Every token is ASCII, so `start` is a character
                // boundary: name the whole character there.
                let c = src[start..].chars().next().expect("a byte is left");
                self.error = Some(ParseError {
                    message: format!("unexpected character '{c}'"),
                    offset: start,
                });
                self.pos = bytes.len();
                return None;
            }
        };
        self.pos += len;
        Some((tok, start))
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The token under the cursor, the one lookahead the grammar needs.
    cur: Option<(Tok<'a>, usize)>,
    bound: Vec<&'a str>,
    /// Nesting levels above the point being parsed.
    depth: usize,
}

/// A parsed formula and how many levels it nests.
type Nested = Result<(Formula, usize), ParseError>;

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok<'a>> {
        self.cur.as_ref().map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.cur.map_or(self.lexer.src.len(), |(_, o)| o)
    }

    /// Step past the token under the cursor.
    fn advance(&mut self) {
        self.cur = self.lexer.next_token();
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.cur.map(|(t, _)| t);
        if t.is_some() {
            self.advance();
        }
        t
    }

    fn expect(&mut self, t: &Tok<'a>, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(t) {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            offset: self.offset(),
        }
    }

    /// The error of input nested deeper than [`MAX_NESTING`].
    fn too_deep(&self) -> ParseError {
        self.err(format!("formula nested deeper than {MAX_NESTING} levels"))
    }

    /// Parse with `levels` more levels above, refused before descending
    /// when that passes the bound: no input recurses past it.
    fn below(&mut self, levels: usize, parse: fn(&mut Self) -> Nested) -> Nested {
        self.depth += levels;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        let nested = parse(self)?;
        self.depth -= levels;
        Ok(nested)
    }

    /// Join two operands as one link of a binary chain, one level above
    /// the deeper of them.
    fn link(
        &self,
        join: fn(Formula, Formula) -> Formula,
        (a, m): (Formula, usize),
        (b, n): (Formula, usize),
    ) -> Nested {
        let nest = 1 + m.max(n);
        if self.depth + nest > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok((join(a, b), nest))
    }

    fn formula(&mut self) -> Nested {
        let mut lhs = self.implies()?;
        while self.peek() == Some(&Tok::Iff) {
            self.advance();
            let rhs = self.implies()?;
            lhs = self.link(Formula::iff, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn implies(&mut self) -> Nested {
        let lhs = self.or()?;
        if self.peek() == Some(&Tok::Implies) {
            self.advance();
            let rhs = self.below(1, Self::implies)?;
            self.link(Formula::implies, lhs, rhs)
        } else {
            Ok(lhs)
        }
    }

    fn or(&mut self) -> Nested {
        let mut lhs = self.and()?;
        while self.peek() == Some(&Tok::Or) {
            self.advance();
            let rhs = self.and()?;
            lhs = self.link(Formula::or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Nested {
        let mut lhs = self.unary()?;
        while self.peek() == Some(&Tok::And) {
            self.advance();
            let rhs = self.unary()?;
            lhs = self.link(Formula::and, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Nested {
        match self.peek() {
            Some(Tok::Not) => {
                self.advance();
                let (w, n) = self.below(1, Self::unary)?;
                Ok((Formula::not(w), n + 1))
            }
            Some(Tok::LParen) => {
                self.advance();
                let (w, n) = self.below(1, Self::formula)?;
                self.expect(&Tok::RParen, "')'")?;
                // Allow a parenthesised formula to be the left side of an
                // equality? Terms are identifiers only, so no.
                Ok((w, n + 1))
            }
            Some(Tok::Ident(word)) => match *word {
                "K" => {
                    self.advance();
                    let (w, n) = self.below(1, Self::unary)?;
                    Ok((Formula::know(w), n + 1))
                }
                "forall" | "all" => {
                    self.advance();
                    self.quantifier(true)
                }
                "exists" | "some" => {
                    self.advance();
                    self.quantifier(false)
                }
                _ => Ok((self.atom_or_eq()?, 0)),
            },
            _ => Err(self.err("expected a formula".into())),
        }
    }

    fn quantifier(&mut self, forall: bool) -> Nested {
        let mut vars = Vec::new();
        loop {
            match self.bump() {
                Some(Tok::Ident(name)) => vars.push(name),
                Some(Tok::Comma) => continue,
                Some(Tok::Dot) => break,
                _ => return Err(self.err("expected variable list ending in '.'".into())),
            }
        }
        if vars.is_empty() {
            return Err(self.err("quantifier binds no variables".into()));
        }
        self.bound.extend(&vars);
        let (body, n) = self.below(vars.len(), Self::formula)?;
        for _ in &vars {
            self.bound.pop();
        }
        let nest = n + vars.len();
        let mut w = body;
        for name in vars.into_iter().rev() {
            let v = Var::new(name);
            w = if forall {
                Formula::forall(v, w)
            } else {
                Formula::exists(v, w)
            };
        }
        Ok((w, nest))
    }

    /// An identifier in term position denotes a variable iff it is bound by
    /// an enclosing quantifier or follows the u/v/w/x/y/z convention. A
    /// leading `$` forces a parameter reading regardless of the name (the
    /// printer's escape for parameters like `$x` that would otherwise
    /// reparse as variables), and is stripped.
    fn term_of(&self, name: &str) -> Term {
        if let Some(stripped) = name.strip_prefix('$') {
            return Term::Param(Param::new(stripped));
        }
        if self.bound.contains(&name) || is_conventional_var(name) {
            Term::Var(Var::new(name))
        } else {
            Term::Param(Param::new(name))
        }
    }

    fn atom_or_eq(&mut self) -> Result<Formula, ParseError> {
        let name = match self.bump() {
            Some(Tok::Ident(n)) => n,
            _ => return Err(self.err("expected identifier".into())),
        };
        match self.peek() {
            Some(Tok::LParen) => {
                self.advance();
                let mut terms = Vec::new();
                loop {
                    match self.bump() {
                        Some(Tok::Ident(t)) => terms.push(self.term_of(t)),
                        _ => return Err(self.err("expected term".into())),
                    }
                    match self.bump() {
                        Some(Tok::Comma) if terms.len() < Pred::MAX_ARITY => continue,
                        Some(Tok::Comma) => return Err(self.err(TOO_MANY_ARGUMENTS.into())),
                        Some(Tok::RParen) => break,
                        _ => return Err(self.err("expected ',' or ')'".into())),
                    }
                }
                let pred = Pred::new(name, terms.len());
                Ok(Formula::Atom(Atom::new(pred, terms)))
            }
            Some(Tok::Eq) => {
                self.advance();
                let lhs = self.term_of(name);
                let rhs = match self.bump() {
                    Some(Tok::Ident(t)) => self.term_of(t),
                    _ => return Err(self.err("expected term after '='".into())),
                };
                Ok(Formula::Eq(lhs, rhs))
            }
            Some(Tok::Neq) => {
                self.advance();
                let lhs = self.term_of(name);
                let rhs = match self.bump() {
                    Some(Tok::Ident(t)) => self.term_of(t),
                    _ => return Err(self.err("expected term after '!='".into())),
                };
                Ok(Formula::not(Formula::Eq(lhs, rhs)))
            }
            _ => {
                // Bare identifier in formula position: a proposition.
                Ok(Formula::Atom(Atom::new(Pred::new(name, 0), vec![])))
            }
        }
    }
}

/// Whether an identifier follows the paper's variable-naming convention:
/// one of `u v w x y z` followed only by digits.
pub(crate) fn is_conventional_var(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some('u' | 'v' | 'w' | 'x' | 'y' | 'z') => chars.all(|c| c.is_ascii_digit()),
        _ => false,
    }
}

/// Parse a single KFOPCE formula from text.
///
/// ```
/// use epilog_syntax::parse;
/// let w = parse("exists x. K Teach(John, x)").unwrap();
/// assert_eq!(w.to_string(), "exists x. K Teach(John, x)");
/// ```
pub fn parse(src: &str) -> Result<Formula, ParseError> {
    let mut lexer = Lexer::new(src);
    let cur = lexer.next_token();
    let mut p = Parser {
        lexer,
        cur,
        bound: Vec::new(),
        depth: 0,
    };
    let parsed = p.formula().and_then(|(w, _)| match p.cur {
        None => Ok(w),
        Some(_) => Err(p.err("trailing input after formula".into())),
    });
    // A character no token starts with, anywhere on the line, is the
    // error, as it is when the line is lexed before it is parsed.
    while p.lexer.error.is_none() && p.lexer.next_token().is_some() {}
    match p.lexer.error {
        Some(e) => Err(e),
        None => parsed,
    }
}

/// Parse a theory: formulas separated by `;` or newlines. Everything from
/// `%` or `//` to the end of a line is a comment. Every formula must be a
/// sentence.
pub fn parse_theory(src: &str) -> Result<Vec<Formula>, ParseError> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    for raw_chunk in src.split([';', '\n']) {
        let uncommented = raw_chunk
            .split('%')
            .next()
            .and_then(|s| s.split("//").next())
            .unwrap_or("");
        let chunk = uncommented.trim();
        if !chunk.is_empty() {
            let w = parse(chunk).map_err(|e| ParseError {
                message: e.message,
                offset: offset + e.offset,
            })?;
            out.push(w);
        }
        offset += raw_chunk.len() + 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        parse(src).unwrap().to_string()
    }

    #[test]
    fn paper_section1_queries_parse() {
        // All queries from §1, in our ASCII syntax.
        for q in [
            "Teach(Mary, CS)",
            "K Teach(Mary, CS)",
            "K ~Teach(Mary, CS)",
            "exists x. K Teach(John, x)",
            "exists x. K Teach(x, CS)",
            "K (exists x. Teach(x, CS))",
            "exists x. Teach(x, Psych)",
            "exists x. Teach(x, Psych) & ~Teach(x, CS)",
            "exists x. Teach(x, Psych) & ~K Teach(x, CS)",
            "K p | K ~p",
        ] {
            parse(q).unwrap_or_else(|e| panic!("failed to parse {q:?}: {e}"));
        }
    }

    #[test]
    fn precedence_and_associativity() {
        assert_eq!(roundtrip("p & q | r"), "p & q | r");
        assert_eq!(roundtrip("p | q & r"), "p | q & r");
        assert_eq!(roundtrip("(p | q) & r"), "(p | q) & r");
        assert_eq!(roundtrip("p -> q -> r"), "p -> q -> r");
        assert_eq!(roundtrip("~p & q"), "~p & q");
        assert_eq!(roundtrip("~(p & q)"), "~(p & q)");
    }

    #[test]
    fn variables_vs_parameters() {
        let w = parse("Teach(x, CS)").unwrap();
        assert_eq!(w.free_vars().len(), 1);
        assert_eq!(w.params().len(), 1);

        // `a` is a parameter by convention even unbound...
        let w2 = parse("P(a, b) | Q(a, c)").unwrap();
        assert!(w2.free_vars().is_empty());
        assert_eq!(w2.params().len(), 3);

        // ...but bound occurrences are variables regardless of name.
        let w3 = parse("exists a. P(a, b)").unwrap();
        assert!(w3.free_vars().is_empty());
        assert_eq!(w3.params(), vec![Param::new("b")]);
    }

    #[test]
    fn multi_variable_quantifier() {
        let w = parse("forall x, y. K mother(x, y) -> K person(y)").unwrap();
        assert!(w.is_sentence());
        assert_eq!(w.quantified_vars().len(), 2);
    }

    #[test]
    fn quantifier_scope_extends_right() {
        let w = parse("exists x. p(x) & q(x)").unwrap();
        assert!(
            w.is_sentence(),
            "body of the quantifier is the whole conjunction"
        );
    }

    #[test]
    fn equality_and_inequality() {
        let w = parse("x = y").unwrap();
        assert_eq!(w.free_vars().len(), 2);
        let w2 = parse("p1 != p2").unwrap();
        assert_eq!(w2.to_string(), "p1 != p2");
        assert!(matches!(w2, Formula::Not(_)));
    }

    #[test]
    fn know_binds_tightly() {
        let w = parse("K p & q").unwrap();
        assert_eq!(w.to_string(), "K p & q");
        assert!(matches!(w, Formula::And(..)));
        let w2 = parse("K (p & q)").unwrap();
        assert!(matches!(w2, Formula::Know(_)));
    }

    #[test]
    fn parse_theory_with_comments() {
        let t = parse_theory(
            "% the Teach database\nTeach(John, Math)\nexists x. Teach(x, CS);\nTeach(Mary, Psych) | Teach(Sue, Psych)",
        )
        .unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn errors_have_offsets() {
        let e = parse("p &").unwrap_err();
        assert!(e.offset >= 2, "offset {} should be at/after '&'", e.offset);
        assert!(parse("p q").is_err());
        assert!(parse("(p").is_err());
        assert!(parse("exists . p").is_err());
    }

    #[test]
    fn dollar_escape_forces_parameters() {
        // A parameter named like a variable prints escaped and reparses as
        // the same ground sentence (the WAL round-trip guarantee).
        let w = Formula::atom("p", vec![Param::new("x").into(), Param::new("y1").into()]);
        assert_eq!(w.to_string(), "p($x, $y1)");
        let back = parse(&w.to_string()).unwrap();
        assert_eq!(back, w);
        assert!(back.is_sentence());
        // The escape works in equality position too.
        let e =
            crate::formula::Formula::Eq(Term::Param(Param::new("x")), Term::Param(Param::new("a")));
        assert_eq!(e.to_string(), "$x = a");
        assert_eq!(parse("$x = a").unwrap(), e);
        // Explicit `$` on a non-colliding name is accepted and stripped.
        assert_eq!(parse("p($John)").unwrap(), parse("p(John)").unwrap());
        // What follows a `$` starts a name: a parameter named ``, `1` or
        // `'` would print as text that does not parse, and a log holding
        // it would not recover.
        for src in ["p($)", "p($1)", "p($')", "p($#a)", "$ = a", "p($ a)"] {
            let err = parse(src).unwrap_err();
            assert!(
                err.message.contains("unexpected character '$'"),
                "{src}: {err}"
            );
        }
        for src in ["p($_1)", "p($x)", "$p", "$x = $y"] {
            let w = parse(src).unwrap();
            assert_eq!(parse(&w.to_string()).unwrap(), w, "{src}");
        }
    }

    #[test]
    fn a_rejected_character_is_named_whole() {
        // Not its first byte cast to a `char`: the offset is the byte
        // offset where the character starts.
        for (src, c, offset) in [
            ("p(é)", 'é', 2),
            ("∀x. p(x)", '∀', 0),
            ("p(a)\u{a0}", '\u{a0}', 4),
        ] {
            let err = parse(src).unwrap_err();
            assert_eq!(err.message, format!("unexpected character '{c}'"), "{src}");
            assert_eq!(err.offset, offset, "{src}");
        }
    }

    /// Malformed lines with the message and byte offset each is refused
    /// with, as they read when the whole line was lexed before parsing:
    /// the streaming lexer moved none of them. A character no token starts
    /// with is the error wherever it sits, even after one the parser would
    /// have refused first.
    #[test]
    fn diagnostics_are_those_of_lexing_the_whole_line_first() {
        let args = |n: usize| format!("q({})", vec!["a"; n].join(", "));
        let cases: Vec<(String, &str, usize)> = vec![
            ("".into(), "expected a formula", 0),
            ("   ".into(), "expected a formula", 3),
            ("p($)".into(), "unexpected character '$'", 2),
            ("$ = a".into(), "unexpected character '$'", 0),
            ("p(a) $".into(), "unexpected character '$'", 5),
            ("p $ q".into(), "unexpected character '$'", 2),
            ("p(a, $1)".into(), "unexpected character '$'", 5),
            (args(256), "a predicate takes at most 255 arguments", 767),
            (
                format!("K {}", args(256)),
                "a predicate takes at most 255 arguments",
                769,
            ),
            (
                format!("p & {}", args(256)),
                "a predicate takes at most 255 arguments",
                771,
            ),
            ("p q".into(), "trailing input after formula", 2),
            ("p(a) q(b)".into(), "trailing input after formula", 5),
            ("p(a))".into(), "trailing input after formula", 4),
            (
                "exists x. p(x) x".into(),
                "trailing input after formula",
                15,
            ),
            ("p(a)(b)".into(), "trailing input after formula", 4),
            ("a = b = c".into(), "trailing input after formula", 6),
            ("<-".into(), "unexpected character '<'", 0),
            ("p <- q".into(), "unexpected character '<'", 2),
            ("p(a) <- q(a)".into(), "unexpected character '<'", 5),
            (
                "~".repeat(257) + "p",
                "formula nested deeper than 256 levels",
                257,
            ),
            (
                "(".repeat(300) + "p" + &")".repeat(300),
                "formula nested deeper than 256 levels",
                257,
            ),
            (
                "exists x. ".repeat(300) + "p",
                "formula nested deeper than 256 levels",
                2570,
            ),
            ("(p".into(), "expected ')'", 2),
            ("p(a".into(), "expected ',' or ')'", 3),
            ("p(a,".into(), "expected term", 4),
            ("(p & q".into(), "expected ')'", 6),
            ("((p | q) & r".into(), "expected ')'", 12),
            ("p &".into(), "expected a formula", 3),
            ("exists . p".into(), "quantifier binds no variables", 9),
            ("forall . p".into(), "quantifier binds no variables", 9),
            (
                "forall x p(x)".into(),
                "expected variable list ending in '.'",
                11,
            ),
            (
                "exists x y p(x)".into(),
                "expected variable list ending in '.'",
                13,
            ),
            ("p(a b)".into(), "expected ',' or ')'", 5),
            ("x =".into(), "expected term after '='", 3),
            ("a != ".into(), "expected term after '!='", 5),
            ("K".into(), "expected a formula", 1),
            ("~".into(), "expected a formula", 1),
            ("p ->".into(), "expected a formula", 4),
            ("p <->".into(), "expected a formula", 5),
            ("p(,)".into(), "expected term", 3),
            ("-> p".into(), "expected a formula", 0),
            ("p(a) & & q".into(), "expected a formula", 7),
            // After what the parser refuses first: trailing input, an
            // unclosed parenthesis, nesting past the bound.
            ("p q $".into(), "unexpected character '$'", 4),
            ("((((p #".into(), "unexpected character '#'", 6),
            ("~".repeat(300) + "p @", "unexpected character '@'", 302),
            ("p(a) ?".into(), "unexpected character '?'", 5),
            ("p - q".into(), "unexpected character '-'", 2),
            ("p < q".into(), "unexpected character '<'", 2),
            (
                "p(a) | q(b) % comment".into(),
                "unexpected character '%'",
                12,
            ),
        ];
        for (src, message, offset) in &cases {
            let err = parse(src).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                (*message, *offset),
                "{src:?}"
            );
        }
    }

    #[test]
    fn binder_shadowed_parameters_escape() {
        // `exists a. p(a) & q(<param a>)`: inside the binder, the bound
        // occurrence prints bare but the *parameter* named `a` must be
        // escaped — the parser reads bound names as variables regardless
        // of the naming convention.
        let a = Var::new("a");
        let w = Formula::exists(
            a,
            crate::formula::Formula::and(
                Formula::atom("p", vec![a.into()]),
                Formula::atom("q", vec![Param::new("a").into()]),
            ),
        );
        assert_eq!(w.to_string(), "exists a. p(a) & q($a)");
        assert_eq!(parse(&w.to_string()).unwrap(), w);
        // Outside the binder the same parameter prints bare.
        let w2 = Formula::atom("q", vec![Param::new("a").into()]);
        assert_eq!(w2.to_string(), "q(a)");
    }

    #[test]
    fn nesting_is_bounded_alike_in_parse_and_in_code() {
        use crate::theory::{Theory, TheoryError};
        // 256 `~` are read and stored, 257 refused by both.
        let nots = |n: usize| format!("{}p(a)", "~".repeat(n));
        let ok = parse(&nots(256)).unwrap();
        assert!(Theory::empty().assert(ok.clone()).is_ok());
        let err = parse(&nots(257)).unwrap_err();
        assert!(err.message.contains("nested deeper than 256"), "{err}");
        let deeper = Formula::not(ok);
        assert_eq!(Theory::empty().assert(deeper), Err(TheoryError::TooDeep));
        // Each shape, built in code up to the last level the bound admits:
        // that prints to what `parse` reads back, one more level to what it
        // refuses.
        let shapes: [fn(Formula) -> Formula; 7] = [
            Formula::not,
            Formula::know,
            |w| Formula::or(w, Formula::prop("p")),
            |w| Formula::implies(Formula::prop("p"), w),
            |w| Formula::implies(w, Formula::prop("p")),
            |w| Formula::not(Formula::and(Formula::prop("p"), w)),
            |w| Formula::exists(Var::new("x"), Formula::iff(w, Formula::prop("p"))),
        ];
        for wrap in shapes {
            let mut w = Formula::prop("p");
            while wrap(w.clone()).within_nesting_bound() {
                w = wrap(w);
            }
            assert_eq!(parse(&w.to_string()).unwrap(), w);
            assert!(parse(&wrap(w).to_string()).is_err());
        }
        // 20 000 levels of each kind are refused without overflowing the
        // stack (walking them, parsing included, would).
        for deep in [
            "~".repeat(20_000) + "p",
            "K ".repeat(20_000) + "p",
            "(".repeat(20_000) + "p" + &")".repeat(20_000),
            "exists x. ".repeat(20_000) + "p",
            "p | ".repeat(20_000) + "p",
            "p -> ".repeat(20_000) + "p",
        ] {
            let err = parse(&deep).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
        }
    }

    #[test]
    fn an_atom_past_the_arity_limit_is_refused_by_name() {
        let atom = |n: usize| format!("q({})", vec!["a"; n].join(", "));
        let widest = parse(&atom(Pred::MAX_ARITY)).unwrap();
        assert_eq!(parse(&widest.to_string()).unwrap(), widest);
        for src in [
            atom(256),
            format!("K {}", atom(300)),
            format!("p & {}", atom(256)),
        ] {
            let err = parse(&src).unwrap_err();
            assert!(
                err.message.contains("a predicate takes at most 255"),
                "{err}"
            );
        }
    }

    #[test]
    fn conventional_variable_names() {
        assert!(is_conventional_var("x"));
        assert!(is_conventional_var("y12"));
        assert!(!is_conventional_var("xy"));
        assert!(!is_conventional_var("John"));
        assert!(!is_conventional_var("a"));
    }
}
