//! Small random theories for the crate's property tests, built from plain
//! data a `proptest` strategy can draw.

use epilog_storage::Database;
use epilog_syntax::formula::Atom;
use epilog_syntax::{parse, Formula, Param, Term, Theory, Var};

/// Raw material for one theory: a shape selector and fact/sentence codes.
pub(crate) type RawTheory = (u8, Vec<(u8, u8, u8)>);

fn atom(src: &str) -> Atom {
    match parse(src).unwrap() {
        Formula::Atom(a) => a,
        other => panic!("not an atom: {other}"),
    }
}

/// A definite theory and its least model, worked out by hand here so the
/// test does not lean on the engine it is checking against: an even
/// selector gives a registrar (`emp`/`ss` facts under `emp ⊃ person`), an
/// odd one a graph under the two transitive-closure rules.
pub(crate) fn definite((shape, facts): &RawTheory) -> (Theory, Database) {
    let mut src = String::new();
    let mut model = Database::new();
    if shape % 2 == 0 {
        src.push_str("forall x. emp(x) -> person(x)\n");
        for &(kind, a, b) in facts {
            let (a, b) = (a % 4, b % 3);
            if kind % 2 == 0 {
                src.push_str(&format!("emp(e{a})\n"));
                model.insert(&atom(&format!("emp(e{a})")));
                model.insert(&atom(&format!("person(e{a})")));
            } else {
                src.push_str(&format!("ss(e{a}, n{b})\n"));
                model.insert(&atom(&format!("ss(e{a}, n{b})")));
            }
        }
    } else {
        src.push_str("forall x, y. e(x, y) -> t(x, y)\n");
        src.push_str("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n");
        let mut reach = [[false; 4]; 4];
        for &(_, a, b) in facts {
            let (a, b) = (a as usize % 4, b as usize % 4);
            src.push_str(&format!("e(c{a}, c{b})\n"));
            model.insert(&atom(&format!("e(c{a}, c{b})")));
            reach[a][b] = true;
        }
        for k in 0..4 {
            for i in 0..4 {
                for j in 0..4 {
                    reach[i][j] |= reach[i][k] && reach[k][j];
                }
            }
        }
        for (i, row) in reach.iter().enumerate() {
            for (j, _) in row.iter().enumerate().filter(|(_, r)| **r) {
                model.insert(&atom(&format!("t(c{i}, c{j})")));
            }
        }
    }
    (Theory::from_text(&src).unwrap(), model)
}

/// A theory outside the definite fragment — negative facts, disjunctions,
/// existentials (never under a universal, so grounding stays exact) — and
/// often enough an unsatisfiable one (`p(a)` beside `~p(a)`, or beside
/// `p ⊃ q` and `~q(a)`).
pub(crate) fn non_definite((_, sentences): &RawTheory) -> Theory {
    let mut src = String::new();
    for &(kind, a, b) in sentences {
        let (a, b) = (a % 2, b % 2);
        src.push_str(&match kind % 8 {
            0 | 1 => format!("p(a{a})\n"),
            2 => format!("~p(a{a})\n"),
            3 => format!("p(a{a}) | q(a{b})\n"),
            4 => format!("~p(a{a}) | q(a{b})\n"),
            5 => "exists x. q(x)\n".to_string(),
            6 => "forall x. p(x) -> q(x)\n".to_string(),
            _ => format!("~q(a{b})\n"),
        });
    }
    Theory::from_text(&src).unwrap()
}

/// Parameters for goals: some every generated theory can mention, two
/// that none does.
pub(crate) fn goal_param(code: u8) -> Param {
    Param::new(["e0", "e1", "n0", "c0", "c1", "a0", "a1", "k0", "k1"][code as usize % 9])
}

/// A closed equality-only goal — `=` between parameters under
/// `¬ ∧ ∨ ⊃ ≡` — read off a byte stream.
pub(crate) fn equality_goal(codes: &mut dyn Iterator<Item = u8>, depth: usize) -> Formula {
    let shape = match depth {
        0 => 0,
        _ => codes.next().unwrap_or(0) % 7,
    };
    let mut sub = || equality_goal(codes, depth - 1);
    match shape {
        0 | 1 => {
            let a = goal_param(codes.next().unwrap_or(0));
            let b = goal_param(codes.next().unwrap_or(0));
            Formula::Eq(Term::Param(a), Term::Param(b))
        }
        2 => Formula::not(sub()),
        3 => Formula::and(sub(), sub()),
        4 => Formula::or(sub(), sub()),
        5 => Formula::implies(sub(), sub()),
        _ => Formula::iff(sub(), sub()),
    }
}

/// A closed FOPCE goal read off a byte stream: atoms over the predicates
/// the generated theories use, equalities, every connective, and both
/// quantifiers, over [`goal_param`]'s parameters and the variables in
/// scope.
pub(crate) fn goal(codes: &mut dyn Iterator<Item = u8>, depth: usize) -> Formula {
    goal_in(codes, depth, &mut Vec::new())
}

fn goal_in(codes: &mut dyn Iterator<Item = u8>, depth: usize, scope: &mut Vec<Var>) -> Formula {
    const PREDS: [(&str, usize); 7] = [
        ("p", 1),
        ("q", 1),
        ("emp", 1),
        ("ss", 2),
        ("person", 1),
        ("e", 2),
        ("t", 2),
    ];
    let term = |codes: &mut dyn Iterator<Item = u8>, scope: &[Var]| {
        let code = codes.next().unwrap_or(0);
        match scope {
            [.., _] if code.is_multiple_of(3) => Term::Var(scope[code as usize / 3 % scope.len()]),
            _ => Term::Param(goal_param(code / 3)),
        }
    };
    let shape = codes.next().unwrap_or(0) % if depth == 0 { 3 } else { 10 };
    let mut sub = |scope: &mut Vec<Var>| goal_in(codes, depth - 1, scope);
    match shape {
        0 | 1 => {
            let (name, arity) = PREDS[codes.next().unwrap_or(0) as usize % PREDS.len()];
            Formula::atom(name, (0..arity).map(|_| term(codes, scope)).collect())
        }
        2 => Formula::Eq(term(codes, scope), term(codes, scope)),
        3 => Formula::not(sub(scope)),
        4 => Formula::and(sub(scope), sub(scope)),
        5 => Formula::or(sub(scope), sub(scope)),
        6 => Formula::implies(sub(scope), sub(scope)),
        7 => Formula::iff(sub(scope), sub(scope)),
        quantifier => {
            let x = Var::new(["x", "y", "z"][scope.len() % 3]);
            scope.push(x);
            let body = sub(scope);
            scope.pop();
            if quantifier == 8 {
                Formula::forall(x, body)
            } else {
                Formula::exists(x, body)
            }
        }
    }
}
