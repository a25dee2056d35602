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

struct Lexer<'a> {
    pos: usize,
    toks: Vec<(Tok<'a>, usize)>,
}

impl<'a> Lexer<'a> {
    fn lex(src: &'a str) -> Result<Vec<(Tok<'a>, usize)>, ParseError> {
        let mut l = Lexer {
            pos: 0,
            toks: Vec::new(),
        };
        let bytes = src.as_bytes();
        let starts_name = |b: &u8| b.is_ascii_alphabetic() || *b == b'_';
        while l.pos < bytes.len() {
            let c = bytes[l.pos] as char;
            let start = l.pos;
            match c {
                ' ' | '\t' | '\n' | '\r' => {
                    l.pos += 1;
                }
                '(' => l.push(Tok::LParen, 1, start),
                ')' => l.push(Tok::RParen, 1, start),
                ',' => l.push(Tok::Comma, 1, start),
                '.' => l.push(Tok::Dot, 1, start),
                '~' => l.push(Tok::Not, 1, start),
                '&' => l.push(Tok::And, 1, start),
                '|' => l.push(Tok::Or, 1, start),
                '=' => l.push(Tok::Eq, 1, start),
                '!' => {
                    if bytes.get(l.pos + 1) == Some(&b'=') {
                        l.push(Tok::Neq, 2, start);
                    } else {
                        l.push(Tok::Not, 1, start);
                    }
                }
                '-' if bytes.get(l.pos + 1) == Some(&b'>') => l.push(Tok::Implies, 2, start),
                '<' if src[l.pos..].starts_with("<->") => l.push(Tok::Iff, 3, start),
                _ if starts_name(&bytes[start])
                    || c == '$' && bytes.get(start + 1).is_some_and(starts_name) =>
                {
                    // `$` introduces an identifier (the forced-parameter
                    // escape) but may not continue one. What follows it
                    // starts a name as any identifier does, so the name
                    // prints back to text that parses.
                    let mut end = l.pos + usize::from(c == '$');
                    while bytes.get(end).is_some_and(|b| {
                        b.is_ascii_alphanumeric() || matches!(b, b'_' | b'\'' | b'#')
                    }) {
                        end += 1;
                    }
                    l.toks.push((Tok::Ident(&src[start..end]), start));
                    l.pos = end;
                }
                _ => {
                    return Err(ParseError {
                        message: format!("unexpected character '{c}'"),
                        offset: start,
                    })
                }
            }
        }
        Ok(l.toks)
    }

    fn push(&mut self, t: Tok<'a>, len: usize, at: usize) {
        self.toks.push((t, at));
        self.pos += len;
    }
}

struct Parser<'a> {
    toks: Vec<(Tok<'a>, usize)>,
    i: usize,
    bound: Vec<&'a str>,
    end: usize,
    /// Nesting levels above the point being parsed.
    depth: usize,
}

/// A parsed formula and how many levels it nests.
type Nested = Result<(Formula, usize), ParseError>;

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.i).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.i).map(|(_, o)| *o).unwrap_or(self.end)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.toks.get(self.i).map(|&(t, _)| t);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok<'a>, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(t) {
            self.i += 1;
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
            self.i += 1;
            let rhs = self.implies()?;
            lhs = self.link(Formula::iff, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn implies(&mut self) -> Nested {
        let lhs = self.or()?;
        if self.peek() == Some(&Tok::Implies) {
            self.i += 1;
            let rhs = self.below(1, Self::implies)?;
            self.link(Formula::implies, lhs, rhs)
        } else {
            Ok(lhs)
        }
    }

    fn or(&mut self) -> Nested {
        let mut lhs = self.and()?;
        while self.peek() == Some(&Tok::Or) {
            self.i += 1;
            let rhs = self.and()?;
            lhs = self.link(Formula::or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Nested {
        let mut lhs = self.unary()?;
        while self.peek() == Some(&Tok::And) {
            self.i += 1;
            let rhs = self.unary()?;
            lhs = self.link(Formula::and, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Nested {
        match self.peek() {
            Some(Tok::Not) => {
                self.i += 1;
                let (w, n) = self.below(1, Self::unary)?;
                Ok((Formula::not(w), n + 1))
            }
            Some(Tok::LParen) => {
                self.i += 1;
                let (w, n) = self.below(1, Self::formula)?;
                self.expect(&Tok::RParen, "')'")?;
                // Allow a parenthesised formula to be the left side of an
                // equality? Terms are identifiers only, so no.
                Ok((w, n + 1))
            }
            Some(Tok::Ident(word)) => match *word {
                "K" => {
                    self.i += 1;
                    let (w, n) = self.below(1, Self::unary)?;
                    Ok((Formula::know(w), n + 1))
                }
                "forall" | "all" => {
                    self.i += 1;
                    self.quantifier(true)
                }
                "exists" | "some" => {
                    self.i += 1;
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
                self.i += 1;
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
                self.i += 1;
                let lhs = self.term_of(name);
                let rhs = match self.bump() {
                    Some(Tok::Ident(t)) => self.term_of(t),
                    _ => return Err(self.err("expected term after '='".into())),
                };
                Ok(Formula::Eq(lhs, rhs))
            }
            Some(Tok::Neq) => {
                self.i += 1;
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
    let toks = Lexer::lex(src)?;
    let mut p = Parser {
        toks,
        i: 0,
        bound: Vec::new(),
        end: src.len(),
        depth: 0,
    };
    let (w, _) = p.formula()?;
    if p.i != p.toks.len() {
        return Err(p.err("trailing input after formula".into()));
    }
    Ok(w)
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
