//! A plain DPLL solver: unit propagation + chronological backtracking,
//! no clause learning, no heuristics beyond first-unassigned branching.
//!
//! Kept as the reference the CDCL solver's tests compare against (on
//! random instances, under assumptions, and on pigeonhole instances).

use crate::cnf::{Cnf, Lit};
use crate::solver::SatResult;

/// Solve by recursive DPLL.
pub(crate) fn solve_dpll(cnf: &Cnf) -> SatResult {
    let n = cnf.num_vars() as usize;
    let mut assign: Vec<i8> = vec![0; n];
    if cnf.clauses().iter().any(Vec::is_empty) {
        return SatResult::Unsat;
    }
    if dpll(cnf, &mut assign) {
        SatResult::Sat(assign.iter().map(|&a| a == 1).collect())
    } else {
        SatResult::Unsat
    }
}

fn value(assign: &[i8], l: Lit) -> i8 {
    let a = assign[l.var() as usize];
    if l.is_pos() {
        a
    } else {
        -a
    }
}

/// Unit propagation; returns `None` on conflict, otherwise the list of
/// variables assigned (for undoing).
fn propagate(cnf: &Cnf, assign: &mut [i8]) -> Option<Vec<usize>> {
    let mut assigned = Vec::new();
    loop {
        let mut changed = false;
        for c in cnf.clauses() {
            let mut unassigned: Option<Lit> = None;
            let mut count_unassigned = 0;
            let mut satisfied = false;
            for &l in c {
                match value(assign, l) {
                    1 => {
                        satisfied = true;
                        break;
                    }
                    0 => {
                        count_unassigned += 1;
                        unassigned = Some(l);
                    }
                    _ => {}
                }
            }
            if satisfied {
                continue;
            }
            match count_unassigned {
                0 => {
                    // Conflict: undo and report.
                    for v in assigned {
                        assign[v] = 0;
                    }
                    return None;
                }
                1 => {
                    let l = unassigned.expect("count is 1");
                    let v = l.var() as usize;
                    assign[v] = if l.is_pos() { 1 } else { -1 };
                    assigned.push(v);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return Some(assigned);
        }
    }
}

fn dpll(cnf: &Cnf, assign: &mut [i8]) -> bool {
    let Some(propagated) = propagate(cnf, assign) else {
        return false;
    };
    let branch = assign.iter().position(|&a| a == 0);
    match branch {
        None => true, // total assignment, all clauses satisfied
        Some(v) => {
            for phase in [1i8, -1] {
                assign[v] = phase;
                if dpll(cnf, assign) {
                    return true;
                }
                assign[v] = 0;
            }
            for v in propagated {
                assign[v] = 0;
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Lit;
    use crate::solver::Solver;

    fn cnf_of(num_vars: u32, clauses: &[&[i32]]) -> Cnf {
        let mut cnf = Cnf::new();
        cnf.reserve_vars(num_vars);
        for c in clauses {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&k| {
                    let v = k.unsigned_abs() - 1;
                    if k > 0 {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            cnf.add_clause(&lits);
        }
        cnf
    }

    #[test]
    fn dpll_basic() {
        assert!(solve_dpll(&cnf_of(2, &[&[1, 2], &[-1]])).is_sat());
        assert_eq!(solve_dpll(&cnf_of(1, &[&[1], &[-1]])), SatResult::Unsat);
    }

    #[test]
    fn dpll_agrees_with_cdcl_on_random_instances() {
        // Deterministic pseudo-random 3-SAT instances via a small LCG.
        let mut seed: u64 = 0x9E3779B97F4A7C15;
        let mut rand = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for instance in 0..30 {
            let n = 8;
            let m = 3 + (instance % 5) * 8;
            let mut cnf = Cnf::new();
            cnf.reserve_vars(n);
            for _ in 0..m {
                let lits: Vec<Lit> = (0..3)
                    .map(|_| {
                        let v = rand() % n;
                        if rand() % 2 == 0 {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        }
                    })
                    .collect();
                cnf.add_clause(&lits);
            }
            let a = solve_dpll(&cnf).is_sat();
            let b = Solver::new(&cnf).solve().is_sat();
            assert_eq!(a, b, "instance {instance}: dpll={a} cdcl={b}");
        }
    }
}
