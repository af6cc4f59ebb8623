//! The setting `D_halt` of Theorem 6.2: data exchange settings under the
//! CWA can simulate Turing machines, making Existence-of-CWA-Solutions
//! undecidable.
//!
//! A deterministic one-tape Turing machine `M` (tape infinite to the
//! right) is encoded as a source instance `S_M` (its transition graph plus
//! the start state); the fixed target dependencies of `D_halt` then chase
//! out the run of `M` on the empty input, one time-stamp null per step.
//! `M` halts on the empty input iff a CWA-solution for `S_M` exists iff
//! the chase terminates. This module contains the TM substrate (model +
//! direct simulator), the encoder, the `D_halt` setting, and a
//! configuration extractor that reads the run back out of the chase
//! result for cross-validation.

use dex_chase::{chase, ChaseBudget, ChaseError};
use dex_core::{Atom, Instance, Symbol, Value};
use dex_logic::{parse_setting, Setting};
use std::collections::BTreeMap;
use std::fmt;

/// Head movement directions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dir {
    Left,
    Right,
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::Left => write!(f, "L"),
            Dir::Right => write!(f, "R"),
        }
    }
}

/// A deterministic one-tape Turing machine, tape infinite to the right.
/// The blank symbol is [`BLANK`]. Missing transitions halt the machine
/// (in particular final states have no outgoing transitions).
#[derive(Clone, Debug)]
pub struct TuringMachine {
    pub start: String,
    /// `(state, read) → (state', write, direction)`.
    pub delta: BTreeMap<(String, String), (String, String, Dir)>,
}

/// The blank tape symbol.
pub const BLANK: &str = "blank";

/// A TM configuration: state, head position (0-based), tape contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Config {
    pub state: String,
    pub head: usize,
    pub tape: Vec<String>,
}

/// The result of running a TM directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunResult {
    /// Halted (no applicable transition) after the recorded trace.
    Halted { trace: Vec<Config> },
    /// Still running after the step limit.
    Running { steps: usize },
}

impl TuringMachine {
    /// Adds a transition.
    pub fn rule(&mut self, q: &str, read: &str, q2: &str, write: &str, dir: Dir) {
        self.delta.insert(
            (q.to_owned(), read.to_owned()),
            (q2.to_owned(), write.to_owned(), dir),
        );
    }

    pub fn new(start: &str) -> TuringMachine {
        TuringMachine {
            start: start.to_owned(),
            delta: BTreeMap::new(),
        }
    }

    /// Runs the machine directly on the empty input, recording each
    /// configuration. The paper's machines never move left from position
    /// 0; a left move at position 0 halts (matching the chase, whose
    /// left-move tgd has no trigger there).
    pub fn run_empty(&self, max_steps: usize) -> RunResult {
        // Mirror the chase's initial tape: two blank cells.
        let mut cfg = Config {
            state: self.start.clone(),
            head: 0,
            tape: vec![BLANK.to_owned(), BLANK.to_owned()],
        };
        let mut trace = vec![cfg.clone()];
        for step in 0..max_steps {
            let key = (cfg.state.clone(), cfg.tape[cfg.head].clone());
            let Some((q2, write, dir)) = self.delta.get(&key) else {
                return RunResult::Halted { trace };
            };
            match dir {
                Dir::Left if cfg.head == 0 => {
                    return RunResult::Halted { trace };
                }
                Dir::Left => {
                    cfg.tape[cfg.head] = write.clone();
                    cfg.head -= 1;
                }
                Dir::Right => {
                    cfg.tape[cfg.head] = write.clone();
                    cfg.head += 1;
                }
            }
            cfg.state = q2.clone();
            // The chase extends the tape by one blank cell per step; the
            // direct simulator mirrors that so traces align exactly.
            cfg.tape.push(BLANK.to_owned());
            let _ = step;
            trace.push(cfg.clone());
        }
        RunResult::Running { steps: max_steps }
    }

    /// The source instance `S_M`: the graph of `δ` plus `Q0(q₀)`.
    pub fn source_instance(&self) -> Instance {
        let mut s = Instance::new();
        for ((q, r), (q2, w, d)) in &self.delta {
            s.insert(Atom::of(
                "Delta",
                vec![
                    Value::konst(q),
                    Value::konst(r),
                    Value::konst(q2),
                    Value::konst(w),
                    Value::konst(&d.to_string()),
                ],
            ));
        }
        s.insert(Atom::of("Q0", vec![Value::konst(&self.start)]));
        s
    }
}

/// The fixed setting `D_halt` of Theorem 6.2.
///
/// Target vocabulary (paper's names in parentheses): `DeltaT` (δ-copy),
/// `Succ` (`t ⊳ t'`), `Head` (`Q(t,q,p)`), `Tape` (`I(t,p,s)`),
/// `NextPos`, `End`, `CopyL`, `CopyR`.
pub fn d_halt() -> Setting {
    parse_setting(
        "source { Delta/5, Q0/1 }
         target { DeltaT/5, Succ/2, Head/3, Tape/3, NextPos/3, End/2, CopyL/3, CopyR/3 }
         st {
           copy_delta: Delta(q,s,q2,s2,d) -> DeltaT(q,s,q2,s2,d);
           init: Q0(q) -> Head('t0',q,'p1') & Tape('t0','p1','blank')
                        & Tape('t0','p2','blank') & NextPos('t0','p1','p2')
                        & End('t0','p2');
         }
         t {
           move_left: Head(t,q,p) & Tape(t,p,s) & NextPos(t,p2,p) & DeltaT(q,s,q2,s2,'L')
             -> exists t2 . Succ(t,t2) & Head(t2,q2,p2) & Tape(t2,p,s2)
                          & CopyL(t,t2,p) & CopyR(t,t2,p);
           move_right: Head(t,q,p) & Tape(t,p,s) & NextPos(t,p,p2) & DeltaT(q,s,q2,s2,'R')
             -> exists t2 . Succ(t,t2) & Head(t2,q2,p2) & Tape(t2,p,s2)
                          & CopyL(t,t2,p) & CopyR(t,t2,p);
           copy_left: CopyL(t,t2,p) & NextPos(t,p2,p) & Tape(t,p2,s)
             -> CopyL(t,t2,p2) & NextPos(t2,p2,p) & Tape(t2,p2,s);
           copy_right: CopyR(t,t2,p) & NextPos(t,p,p2) & Tape(t,p2,s)
             -> CopyR(t,t2,p2) & NextPos(t2,p,p2) & Tape(t2,p2,s);
           extend: End(t,p) & Succ(t,t2)
             -> exists p2 . NextPos(t2,p,p2) & Tape(t2,p2,'blank') & End(t2,p2);
         }",
    )
    .expect("D_halt parses")
}

/// The outcome of probing Existence-of-CWA-Solutions(D_halt) on `S_M`.
#[derive(Clone, Debug)]
pub enum HaltProbe {
    /// The chase terminated: `M` halts; a CWA-solution exists. Contains
    /// the run extracted from the chase result.
    Halts {
        chase_trace: Vec<Config>,
        chase_steps: usize,
    },
    /// The chase exceeded its budget: within the budget, `M` does not
    /// halt (the problem is undecidable in general — the budget is the
    /// honest interface).
    Unknown { steps: usize },
    /// The chase was stopped by the budget's deadline or cancel flag
    /// before it could finish or exhaust its step/atom limits. Like
    /// `Unknown`, this says nothing about `M`.
    Interrupted(dex_core::govern::Interrupt),
}

/// Decides (within `budget`) whether a CWA-solution for `S_M` exists by
/// running the standard chase of `D_halt` and extracting the simulated
/// run.
pub fn probe_halting(tm: &TuringMachine, budget: &ChaseBudget) -> HaltProbe {
    let setting = d_halt();
    let s = tm.source_instance();
    match chase(&setting, &s, budget) {
        Ok(success) => HaltProbe::Halts {
            chase_trace: extract_trace(&success.target),
            chase_steps: success.steps,
        },
        Err(ChaseError::BudgetExceeded { steps, .. }) => HaltProbe::Unknown { steps },
        Err(ChaseError::Interrupted(i)) => HaltProbe::Interrupted(i),
        Err(e @ ChaseError::EgdConflict { .. }) => {
            unreachable!("D_halt has no egds: {e}")
        }
        Err(e @ ChaseError::InvalidSource(_)) => {
            unreachable!("S_M is built over D_halt's source schema: {e}")
        }
    }
}

/// Reads the simulated run back out of a chase result over `D_halt`'s
/// target schema: follows the `Succ` chain from `t0`, and per time stamp
/// reconstructs state, head position and tape from `Head`, `Tape` and the
/// `NextPos` order.
pub fn extract_trace(target: &Instance) -> Vec<Config> {
    let succ: BTreeMap<Value, Value> = target
        .rows_of(Symbol::intern("Succ"))
        .map(|r| (r[0], r[1]))
        .collect();
    let mut times = vec![Value::konst("t0")];
    while let Some(&next) = succ.get(times.last().expect("nonempty")) {
        times.push(next);
    }
    let mut out = Vec::new();
    for &t in &times {
        // Positions ordered by the NextPos chain from p1.
        let next_pos: BTreeMap<Value, Value> = target
            .rows_of(Symbol::intern("NextPos"))
            .filter(|r| r[0] == t)
            .map(|r| (r[1], r[2]))
            .collect();
        let mut positions = vec![Value::konst("p1")];
        while let Some(&p) = next_pos.get(positions.last().expect("nonempty")) {
            positions.push(p);
        }
        let symbols: BTreeMap<Value, String> = target
            .rows_of(Symbol::intern("Tape"))
            .filter(|r| r[0] == t)
            .map(|r| (r[1], format!("{}", r[2])))
            .collect();
        let head_row: Vec<Value> = target
            .rows_of(Symbol::intern("Head"))
            .find(|r| r[0] == t)
            .expect("every time stamp has a head atom")
            .to_vec();
        let head = positions
            .iter()
            .position(|&p| p == head_row[2])
            .expect("head position is on the tape");
        let tape: Vec<String> = positions
            .iter()
            .map(|p| symbols.get(p).cloned().unwrap_or_else(|| BLANK.to_owned()))
            .collect();
        out.push(Config {
            state: format!("{}", head_row[1]),
            head,
            tape,
        });
    }
    out
}

/// Remark 6.3's witness that ordinary *solutions* always exist for
/// `D_halt` (even for diverging machines, for which no CWA-solution
/// exists): the full relation over the relevant constants is a solution,
/// because every tgd head is existentially satisfiable inside it.
///
/// The universe is `Const(S_M) ∪ {t0, p1, p2, blank, L, R}`. Beware: the
/// instance has `|U|^r` atoms per `r`-ary relation — use tiny machines.
pub fn full_relation_solution(tm: &TuringMachine) -> Instance {
    let s = tm.source_instance();
    let mut universe: Vec<Value> = s.constants().into_iter().map(Value::Const).collect();
    for extra in ["t0", "p1", "p2", BLANK, "L", "R"] {
        let v = Value::konst(extra);
        if !universe.contains(&v) {
            universe.push(v);
        }
    }
    let mut t = Instance::new();
    let rels: [(&str, usize); 8] = [
        ("DeltaT", 5),
        ("Succ", 2),
        ("Head", 3),
        ("Tape", 3),
        ("NextPos", 3),
        ("End", 2),
        ("CopyL", 3),
        ("CopyR", 3),
    ];
    for (rel, arity) in rels {
        let mut idx = vec![0usize; arity];
        loop {
            let args: Vec<Value> = idx.iter().map(|&i| universe[i]).collect();
            t.insert(Atom::of(rel, args));
            let mut k = 0;
            loop {
                if k == arity {
                    break;
                }
                idx[k] += 1;
                if idx[k] < universe.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if k == arity {
                break;
            }
        }
    }
    t
}

/// A machine that walks right over `n` cells, then halts: halts on the
/// empty input in exactly `n` steps.
pub fn right_walker(n: usize) -> TuringMachine {
    let mut tm = TuringMachine::new("q0");
    for i in 0..n {
        tm.rule(
            &format!("q{i}"),
            BLANK,
            &format!("q{}", i + 1),
            "1",
            Dir::Right,
        );
    }
    tm
}

/// A machine that zig-zags: writes 1, steps right, comes back, halts —
/// exercises left moves and tape copying.
pub fn zigzag() -> TuringMachine {
    let mut tm = TuringMachine::new("q0");
    tm.rule("q0", BLANK, "q1", "1", Dir::Right);
    tm.rule("q1", BLANK, "q2", "2", Dir::Left);
    tm.rule("q2", "1", "q3", "3", Dir::Right);
    // q3 reads 2 → no rule → halt.
    tm
}

/// A machine that runs forever (keeps walking right).
pub fn forever_right() -> TuringMachine {
    let mut tm = TuringMachine::new("q0");
    tm.rule("q0", BLANK, "q0", "1", Dir::Right);
    tm.rule("q0", "1", "q0", "1", Dir::Right);
    tm
}

/// The 2-state busy beaver (adapted to the right-infinite tape: the
/// bouncing pattern is shifted right first). Halts after a handful of
/// steps, writing several 1s.
pub fn small_beaver() -> TuringMachine {
    let mut tm = TuringMachine::new("a");
    tm.rule("a", BLANK, "b", "1", Dir::Right);
    tm.rule("a", "1", "b", "1", Dir::Left);
    tm.rule("b", BLANK, "a", "1", Dir::Left);
    // b reading 1 halts.
    tm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d_halt_is_not_weakly_acyclic() {
        // Succ/Head/Tape positions feed themselves through existential
        // time stamps — exactly why Theorem 6.2 needs general settings.
        assert!(!dex_logic::is_weakly_acyclic(&d_halt()));
    }

    #[test]
    fn right_walker_halts_in_chase_and_directly() {
        let tm = right_walker(3);
        let direct = tm.run_empty(100);
        let RunResult::Halted { trace } = direct else {
            panic!("walker halts")
        };
        assert_eq!(trace.len(), 4); // initial + 3 steps
        let probe = probe_halting(&tm, &ChaseBudget::default());
        let HaltProbe::Halts { chase_trace, .. } = probe else {
            panic!("chase terminates for a halting machine")
        };
        assert_eq!(chase_trace, trace);
    }

    #[test]
    fn zigzag_trace_matches_exactly() {
        let tm = zigzag();
        let RunResult::Halted { trace } = tm.run_empty(100) else {
            panic!("zigzag halts")
        };
        let HaltProbe::Halts { chase_trace, .. } = probe_halting(&tm, &ChaseBudget::default())
        else {
            panic!("chase terminates")
        };
        assert_eq!(chase_trace, trace);
        // The final configuration has the rewrites in place.
        let last = chase_trace.last().unwrap();
        assert_eq!(last.state, "q3");
        assert_eq!(last.tape[0], "3");
        assert_eq!(last.tape[1], "2");
    }

    #[test]
    fn small_beaver_matches() {
        let tm = small_beaver();
        let RunResult::Halted { trace } = tm.run_empty(100) else {
            panic!("beaver halts")
        };
        let HaltProbe::Halts { chase_trace, .. } = probe_halting(&tm, &ChaseBudget::default())
        else {
            panic!("chase terminates")
        };
        assert_eq!(chase_trace, trace);
    }

    #[test]
    fn forever_right_exceeds_budget() {
        let tm = forever_right();
        assert_eq!(tm.run_empty(50), RunResult::Running { steps: 50 });
        let probe = probe_halting(&tm, &ChaseBudget::probe());
        assert!(matches!(probe, HaltProbe::Unknown { .. }));
    }

    #[test]
    fn halting_machine_has_cwa_solution() {
        // Theorem 6.2, halting direction: the chase result is a universal
        // solution, so a CWA-solution exists (Corollary 5.2).
        let tm = right_walker(2);
        let setting = d_halt();
        let s = tm.source_instance();
        assert!(dex_cwa::cwa_solution_exists(&setting, &s, &ChaseBudget::default()).unwrap());
    }

    #[test]
    fn chase_steps_scale_with_run_length() {
        let s2 = match probe_halting(&right_walker(2), &ChaseBudget::default()) {
            HaltProbe::Halts { chase_steps, .. } => chase_steps,
            _ => panic!(),
        };
        let s5 = match probe_halting(&right_walker(5), &ChaseBudget::default()) {
            HaltProbe::Halts { chase_steps, .. } => chase_steps,
            _ => panic!(),
        };
        assert!(s5 > s2);
    }

    /// Remark 6.3: even for a diverging machine, *solutions* exist for
    /// D_halt (the full relation over the constants) — only CWA-solutions
    /// do not. This separates Existence-of-Solutions from
    /// Existence-of-CWA-Solutions on D_halt.
    #[test]
    fn remark_6_3_full_relation_is_a_solution() {
        // A single-state machine keeps the universe (and the check) small.
        let mut tm = TuringMachine::new("q0");
        tm.rule("q0", BLANK, "q0", BLANK, Dir::Right);
        let s = tm.source_instance();
        let full = full_relation_solution(&tm);
        let setting = d_halt();
        assert!(setting.is_solution(&s, &full));
        // And the machine diverges, so the chase never terminates.
        assert!(matches!(
            probe_halting(&tm, &ChaseBudget::probe()),
            HaltProbe::Unknown { .. }
        ));
    }

    #[test]
    fn source_instance_encodes_delta() {
        let tm = zigzag();
        let s = tm.source_instance();
        assert_eq!(s.rows_of_len(Symbol::intern("Delta")), 3);
        assert_eq!(s.rows_of_len(Symbol::intern("Q0")), 1);
        assert!(s.is_ground());
    }
}
