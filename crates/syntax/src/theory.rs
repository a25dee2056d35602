//! First-order theories: the databases of the paper.
//!
//! A database is specified by a set of FOPCE *sentences* (§2). [`Theory`]
//! enforces sentencehood and first-orderness at construction, and exposes
//! the structural views the rest of the system needs: the active domain
//! (mentioned parameters) and the mentioned predicates.

use crate::classify::is_first_order;
use crate::formula::{Formula, MAX_NESTING};
use crate::parse::{parse_theory, ParseError};
use crate::symbols::{FoldState, Param, Pred};
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::sync::Arc;

/// Error raised when constructing a [`Theory`] from formulas that are not
/// first-order sentences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoryError {
    /// The formula contains the modal operator `K`; databases are
    /// first-order (truths about the *world* go in the database, truths
    /// about the *database* are integrity constraints — §3).
    NotFirstOrder(String),
    /// The formula has free variables.
    NotSentence(String),
    /// The formula nests deeper than [`MAX_NESTING`] levels
    /// ([`Formula::within_nesting_bound`]).
    TooDeep,
    /// Parse failure when building from text.
    Parse(ParseError),
}

impl fmt::Display for TheoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TheoryError::NotFirstOrder(s) => {
                write!(
                    f,
                    "`{s}` mentions K; only FOPCE sentences may enter a database"
                )
            }
            TheoryError::NotSentence(s) => write!(f, "`{s}` has free variables"),
            TheoryError::TooDeep => {
                write!(f, "the sentence nests deeper than {MAX_NESTING} levels")
            }
            TheoryError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TheoryError {}

impl From<ParseError> for TheoryError {
    fn from(e: ParseError) -> Self {
        TheoryError::Parse(e)
    }
}

/// A database: a finite set of FOPCE sentences.
///
/// The sentences are listed in the order they were asserted (what
/// [`Theory::sentences`], the log and the snapshot see) and indexed by a
/// hash set under the seeded hasher of
/// [`symbols`](crate::symbols#the-seeded-hasher) (what makes membership —
/// every update asks it — one look-up). List and index hold the same
/// `Arc`s, so a sentence is stored
/// once, and a clone of the theory bumps reference counts instead of
/// copying formulas: the states a server keeps alive side by side share
/// every sentence they agree on.
#[derive(Clone, Default)]
pub struct Theory {
    sentences: Vec<Arc<Formula>>,
    /// Exactly the `Arc`s of `sentences`.
    index: HashSet<Arc<Formula>, FoldState>,
}

/// Two theories are equal when they list the same sentences in the same
/// order (the index follows from the list).
impl PartialEq for Theory {
    fn eq(&self, other: &Self) -> bool {
        self.sentences == other.sentences
    }
}

impl Eq for Theory {}

impl fmt::Debug for Theory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Theory")
            .field("sentences", &self.sentences)
            .finish()
    }
}

impl Theory {
    /// The empty database — which, pleasingly, satisfies every constraint
    /// of the form "every known employee has a known social security
    /// number" (§3).
    pub fn empty() -> Self {
        Theory::default()
    }

    /// Construct from sentences, validating each. The list and the index
    /// are sized for all of them up front.
    pub fn new(sentences: Vec<Formula>) -> Result<Self, TheoryError> {
        let mut t = Theory {
            sentences: Vec::with_capacity(sentences.len()),
            index: HashSet::with_capacity_and_hasher(sentences.len(), FoldState::default()),
        };
        for s in sentences {
            t.assert(s)?;
        }
        Ok(t)
    }

    /// Parse a theory from text (`;`/newline-separated sentences, `%`
    /// comments).
    pub fn from_text(src: &str) -> Result<Self, TheoryError> {
        Theory::new(parse_theory(src)?)
    }

    /// Whether `w` may enter a database: nested within [`MAX_NESTING`]
    /// levels (checked first, so the other checks walk a shallow
    /// formula), free of `K`, and closed. Each check is one recursive
    /// walk that collects nothing, so a valid sentence costs no
    /// allocation; only a refusal prints the sentence into its error.
    pub fn validate(w: &Formula) -> Result<(), TheoryError> {
        if !w.within_nesting_bound() {
            return Err(TheoryError::TooDeep);
        }
        if !is_first_order(w) {
            return Err(TheoryError::NotFirstOrder(w.to_string()));
        }
        if !w.is_sentence() {
            return Err(TheoryError::NotSentence(w.to_string()));
        }
        Ok(())
    }

    /// Add one sentence, validating it ([`Theory::validate`]). Duplicate
    /// sentences are kept once.
    pub fn assert(&mut self, w: Formula) -> Result<(), TheoryError> {
        Theory::validate(&w)?;
        let w = Arc::new(w);
        if self.index.insert(Arc::clone(&w)) {
            self.sentences.push(w);
        }
        Ok(())
    }

    /// Remove a sentence (by syntactic identity). Returns whether it was
    /// present.
    pub fn retract(&mut self, w: &Formula) -> bool {
        let Some(held) = self.index.take(w) else {
            return false;
        };
        let at = self
            .sentences
            .iter()
            .position(|s| Arc::ptr_eq(s, &held))
            .expect("an indexed sentence is listed");
        self.sentences.remove(at);
        true
    }

    /// Whether `w` is one of the sentences (by syntactic identity).
    pub fn contains(&self, w: &Formula) -> bool {
        self.index.contains(w)
    }

    /// The sentences of the theory, in the order they were asserted, each
    /// behind the pointer its clones share.
    pub fn sentences(&self) -> &[Arc<Formula>] {
        &self.sentences
    }

    /// Number of sentences.
    pub fn len(&self) -> usize {
        self.sentences.len()
    }

    /// Whether the theory is empty.
    pub fn is_empty(&self) -> bool {
        self.sentences.is_empty()
    }

    /// The *active domain*: every parameter mentioned by some sentence,
    /// sorted. (Lemma 6.2: an elementary theory has a model mentioning only
    /// these parameters.)
    pub fn active_domain(&self) -> Vec<Param> {
        let mut out = BTreeSet::new();
        for s in &self.sentences {
            out.extend(s.params());
        }
        out.into_iter().collect()
    }

    /// Every predicate mentioned by some sentence, sorted.
    pub fn preds(&self) -> Vec<Pred> {
        let mut out = BTreeSet::new();
        for s in &self.sentences {
            out.extend(s.preds());
        }
        out.into_iter().collect()
    }
}

impl fmt::Display for Theory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.sentences {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn teach_db() -> Theory {
        Theory::from_text(
            "Teach(John, Math)
             exists x. Teach(x, CS)
             Teach(Mary, Psych) | Teach(Sue, Psych)",
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let mut t = Theory::empty();
        assert!(t.assert(parse("p(a)").unwrap()).is_ok());
        assert!(matches!(
            t.assert(parse("K p(a)").unwrap()),
            Err(TheoryError::NotFirstOrder(_))
        ));
        assert!(matches!(
            t.assert(parse("p(x)").unwrap()),
            Err(TheoryError::NotSentence(_))
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicates_collapse() {
        let mut t = Theory::empty();
        t.assert(parse("p(a)").unwrap()).unwrap();
        t.assert(parse("p(a)").unwrap()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn retract_works() {
        let mut t = teach_db();
        assert!(t.retract(&parse("Teach(John, Math)").unwrap()));
        assert!(!t.retract(&parse("Teach(John, Math)").unwrap()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn active_domain_and_preds() {
        let t = teach_db();
        let dom: Vec<String> = t.active_domain().iter().map(|p| p.name()).collect();
        let mut expect = vec!["CS", "John", "Math", "Mary", "Psych", "Sue"];
        let mut got = dom.clone();
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
        assert_eq!(t.preds().len(), 1);
    }

    #[test]
    fn display_round_trips() {
        let t = teach_db();
        let t2 = Theory::from_text(&t.to_string()).unwrap();
        assert_eq!(t, t2);
    }
}
