//! Seeded SMT-LIB script generator.
//!
//! Every template builds its script from a handful of random choices
//! and records, at the same time, what a correct answer looks like
//! ([`Truth`]). The same seed always yields byte-identical scripts.

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; distinct seeds give unrelated streams.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A lowercase ASCII letter.
    pub fn letter(&mut self) -> char {
        char::from(b'a' + self.range(0, 25) as u8)
    }

    /// A lowercase word of `len` letters.
    pub fn word(&mut self, len: usize) -> String {
        (0..len).map(|_| self.letter()).collect()
    }

    /// A lowercase letter other than `not`.
    pub fn letter_except(&mut self, not: char) -> char {
        loop {
            let c = self.letter();
            if c != not {
                return c;
            }
        }
    }
}

/// What one string position may hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Class {
    /// Any character.
    Any,
    /// A character in `lo..=hi`.
    Range(char, char),
    /// Exactly this character.
    Is(char),
}

/// The ground truth of a generated script, known by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Truth {
    /// Satisfiable with exactly one model value.
    Equals(String),
    /// A palindrome of `len` characters starting with `prefix`.
    Palindrome { len: usize, prefix: String },
    /// One character class per position; the length is the class count.
    Positions(Vec<Class>),
    /// `len` characters, starting with `prefix` and ending with `suffix`.
    Affix {
        len: usize,
        prefix: String,
        suffix: String,
    },
    /// An integer: the first index of a needle in a haystack.
    Index(usize),
    /// Unsatisfiable (a length conflict).
    Unsat,
}

/// The script families the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    // Deterministic transformations: one answer, fixed by the script.
    Reverse,
    ReplaceAll,
    ReplaceFirst,
    ConcatReplace,
    Substring,
    Nested,
    Repetition,
    // Search: many answers (or none), found by sampling or enumeration.
    Palindrome,
    RegexRange,
    CharPins,
    IndexOf,
    PrefixSuffix,
    LengthConflict,
}

impl Template {
    /// Short family label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Template::Reverse => "reverse",
            Template::ReplaceAll => "replace-all",
            Template::ReplaceFirst => "replace-first",
            Template::ConcatReplace => "concat-replace",
            Template::Substring => "substring",
            Template::Nested => "nested",
            Template::Repetition => "repetition",
            Template::Palindrome => "palindrome",
            Template::RegexRange => "regex-range",
            Template::CharPins => "char-pins",
            Template::IndexOf => "indexof",
            Template::PrefixSuffix => "prefix-suffix",
            Template::LengthConflict => "length-conflict",
        }
    }
}

/// The deterministic-transformation cycle, one of each per seven scripts.
pub const DETERMINED: [Template; 7] = [
    Template::Reverse,
    Template::ReplaceAll,
    Template::ReplaceFirst,
    Template::ConcatReplace,
    Template::Substring,
    Template::Nested,
    Template::Repetition,
];

/// The search cycle: one script in ten is unsat by construction.
pub const SEARCH: [Template; 10] = [
    Template::Palindrome,
    Template::RegexRange,
    Template::CharPins,
    Template::IndexOf,
    Template::PrefixSuffix,
    Template::Palindrome,
    Template::RegexRange,
    Template::CharPins,
    Template::PrefixSuffix,
    Template::LengthConflict,
];

/// One generated script with its answer key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The template it came from.
    pub template: Template,
    /// The declared constant the model must assign.
    pub var: String,
    /// SMT-LIB source.
    pub source: String,
    /// What a correct answer looks like.
    pub truth: Truth,
    /// The solver seed to run it with.
    pub seed: u64,
}

fn script(decls: &str, asserts: &[String]) -> String {
    let mut s = String::from("(set-logic QF_S)\n");
    s.push_str(decls);
    for a in asserts {
        s.push_str("(assert ");
        s.push_str(a);
        s.push_str(")\n");
    }
    s.push_str("(check-sat)\n(get-model)\n");
    s
}

/// Builds one script of `template`. `shape` draws the sizes (lengths,
/// positions, pin counts) and `fill` the literal characters, so two
/// cases with the same shape seed and different fill seeds compile to
/// QUBOs of the same structure with different coefficients.
pub fn make(template: Template, shape_seed: u64, fill_seed: u64, seed: u64) -> Case {
    let mut shape = Rng::new(shape_seed);
    let mut fill = Rng::new(fill_seed);
    let sx = "(declare-const x String)\n";
    let ss = "(declare-const s String)\n";
    let (var, source, truth) = match template {
        // Lengths 1..=17 give compiled goals of 7..=119 variables.
        Template::Reverse => {
            let w = fill.word(shape.range(1, 17));
            let t = format!("(= x (str.rev \"{w}\"))");
            (
                "x",
                script(sx, &[t]),
                Truth::Equals(w.chars().rev().collect()),
            )
        }
        Template::ReplaceAll | Template::ReplaceFirst => {
            let len = shape.range(2, 17);
            let pick = shape.range(0, len - 1);
            let w = fill.word(len);
            let from = w.chars().nth(pick).expect("pick < len");
            let to = fill.letter_except(from);
            let (op, expected) = if template == Template::ReplaceAll {
                ("str.replace_all", w.replace(from, &to.to_string()))
            } else {
                ("str.replace", w.replacen(from, &to.to_string(), 1))
            };
            let t = format!("(= x ({op} \"{w}\" \"{from}\" \"{to}\"))");
            ("x", script(sx, &[t]), Truth::Equals(expected))
        }
        Template::ConcatReplace => {
            let a = shape.range(1, 8);
            let b = shape.range(1, 8);
            let pick = shape.range(0, a - 1);
            let (w1, w2) = (fill.word(a), fill.word(b));
            let from = w1.chars().nth(pick).expect("pick < a");
            let to = fill.letter_except(from);
            let joined = format!("{w1} {w2}");
            let t = format!(
                "(= x (str.replace_all (str.++ \"{w1}\" \" \" \"{w2}\") \"{from}\" \"{to}\"))"
            );
            let expected = joined.replace(from, &to.to_string());
            ("x", script(sx, &[t]), Truth::Equals(expected))
        }
        Template::Substring => {
            // A contained word as long as the string: one answer.
            let w = fill.word(shape.range(2, 17));
            let asserts = [
                format!("(str.contains s \"{w}\")"),
                format!("(= (str.len s) {})", w.len()),
            ];
            ("s", script(ss, &asserts), Truth::Equals(w))
        }
        Template::Nested => {
            let a = shape.range(1, 8);
            let b = shape.range(1, 8);
            let pick = shape.range(0, a + b - 1);
            let (w1, w2) = (fill.word(a), fill.word(b));
            let reversed: String = format!("{w1}{w2}").chars().rev().collect();
            let from = reversed.chars().nth(pick).expect("pick < a + b");
            let to = fill.letter_except(from);
            let t = format!(
                "(= x (str.replace (str.rev (str.++ \"{w1}\" \"{w2}\")) \"{from}\" \"{to}\"))"
            );
            let expected = reversed.replacen(from, &to.to_string(), 1);
            ("x", script(sx, &[t]), Truth::Equals(expected))
        }
        Template::Repetition => {
            // w (c)? u at length |w|+1+|u|: the optional part must be taken.
            let a = shape.range(1, 8);
            let b = shape.range(1, 8);
            let (w, c, u) = (fill.word(a), fill.letter(), fill.word(b));
            let asserts = [
                format!(
                    "(str.in_re s (re.++ (str.to_re \"{w}\") (re.opt (str.to_re \"{c}\")) (str.to_re \"{u}\")))"
                ),
                format!("(= (str.len s) {})", a + 1 + b),
            ];
            (
                "s",
                script(ss, &asserts),
                Truth::Equals(format!("{w}{c}{u}")),
            )
        }
        // Sizes straddle the 26-variable exact/annealer crossover
        // (7 variables per character).
        Template::Palindrome => {
            let len = shape.range(2, 7);
            let plen = shape.range(0, len / 2);
            let prefix = fill.word(plen);
            let mut asserts = vec![
                "(= s (str.rev s))".to_string(),
                format!("(= (str.len s) {len})"),
            ];
            if plen > 0 {
                asserts.push(format!("(str.prefixof \"{prefix}\" s)"));
            }
            ("s", script(ss, &asserts), Truth::Palindrome { len, prefix })
        }
        Template::RegexRange => {
            let k = shape.range(2, 5);
            let mut items = Vec::with_capacity(k);
            let mut classes = Vec::with_capacity(k);
            for _ in 0..k {
                match shape.range(0, 2) {
                    0 => {
                        let lo = char::from(b'a' + fill.range(0, 19) as u8);
                        let hi = char::from(lo as u8 + fill.range(1, 5) as u8);
                        items.push(format!("(re.range \"{lo}\" \"{hi}\")"));
                        classes.push(Class::Range(lo, hi));
                    }
                    1 => {
                        items.push("re.allchar".to_string());
                        classes.push(Class::Any);
                    }
                    _ => {
                        let c = fill.letter();
                        items.push(format!("(str.to_re \"{c}\")"));
                        classes.push(Class::Is(c));
                    }
                }
            }
            let asserts = [
                format!("(str.in_re s (re.++ {}))", items.join(" ")),
                format!("(= (str.len s) {k})"),
            ];
            ("s", script(ss, &asserts), Truth::Positions(classes))
        }
        Template::CharPins => {
            let len = shape.range(3, 7);
            let pins = shape.range(1, 3.min(len - 1));
            let mut classes = vec![Class::Any; len];
            let mut asserts = Vec::with_capacity(pins + 1);
            let mut placed = 0;
            while placed < pins {
                let at = shape.range(0, len - 1);
                if classes[at] == Class::Any {
                    let c = fill.letter();
                    classes[at] = Class::Is(c);
                    asserts.push(format!("(= (str.at s {at}) \"{c}\")"));
                    placed += 1;
                }
            }
            asserts.push(format!("(= (str.len s) {len})"));
            ("s", script(ss, &asserts), Truth::Positions(classes))
        }
        Template::IndexOf => {
            let hay = fill.word(shape.range(5, 10));
            let nlen = shape.range(1, 3);
            let at = shape.range(0, hay.len() - nlen);
            let needle = &hay[at..at + nlen];
            let first = hay.find(needle).expect("needle is a slice of hay");
            let t = format!("(= i (str.indexof \"{hay}\" \"{needle}\" 0))");
            let decl = "(declare-const i Int)\n";
            ("i", script(decl, &[t]), Truth::Index(first))
        }
        Template::PrefixSuffix => {
            let len = shape.range(3, 7);
            let p = shape.range(1, 2);
            let q = shape.range(1, (len - p).min(2));
            let (prefix, suffix) = (fill.word(p), fill.word(q));
            let asserts = [
                format!("(str.prefixof \"{prefix}\" s)"),
                format!("(str.suffixof \"{suffix}\" s)"),
                format!("(= (str.len s) {len})"),
            ];
            let truth = Truth::Affix {
                len,
                prefix,
                suffix,
            };
            ("s", script(ss, &asserts), truth)
        }
        Template::LengthConflict => {
            let wlen = shape.range(3, 7);
            let w = fill.word(wlen);
            let (fact, len) = if shape.range(0, 1) == 0 {
                (
                    format!("(str.contains s \"{w}\")"),
                    shape.range(1, wlen - 1),
                )
            } else {
                let len = if shape.range(0, 1) == 0 {
                    shape.range(1, wlen - 1)
                } else {
                    shape.range(wlen + 1, wlen + 3)
                };
                (format!("(str.in_re s (str.to_re \"{w}\"))"), len)
            };
            let asserts = [fact, format!("(= (str.len s) {len})")];
            ("s", script(ss, &asserts), Truth::Unsat)
        }
    };
    Case {
        template,
        var: var.to_string(),
        source,
        truth,
        seed,
    }
}

/// Distinct shapes (sizes, positions) per template. Runs walk each
/// template's shape ladder from a seed-chosen rotation, so every window
/// of `SHAPES` occurrences covers the same sizes whatever the seed:
/// the seed varies characters, solver seeds and order within the
/// ladder, not how much work a run holds.
pub const SHAPES: usize = 16;

fn shape_seed(template: Template, k: usize) -> u64 {
    ((template as u64) << 32) | (k % SHAPES) as u64
}

/// Per-template occurrence counters walking the shape ladders.
struct Ladder {
    rotation: usize,
    seen: [usize; 13],
}

impl Ladder {
    fn new(rng: &mut Rng) -> Ladder {
        Ladder {
            rotation: rng.range(0, SHAPES - 1),
            seen: [0; 13],
        }
    }

    fn next(&mut self, template: Template) -> u64 {
        let k = &mut self.seen[template as usize];
        *k += 1;
        shape_seed(template, *k + self.rotation)
    }
}

/// `n` scripts cycling through `cycle`, so every stretch of the list
/// mixes all families. Solver seeds stay below 2^32.
pub fn cycle_cases(cycle: &[Template], seed: u64, n: usize) -> Vec<Case> {
    let mut rng = Rng::new(seed);
    let mut ladder = Ladder::new(&mut rng);
    (0..n)
        .map(|i| {
            let template = cycle[i % cycle.len()];
            let shape = ladder.next(template);
            make(template, shape, rng.next_u64(), rng.next_u64() >> 32)
        })
        .collect()
}

/// How a `serve-repeat` request relates to earlier traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// A script not sent before.
    Unique,
    /// Byte-identical to an earlier request, same seed.
    Repeat,
    /// Same template and sizes as an earlier request, new characters.
    NearMiss,
}

/// The `serve-repeat` traffic pattern, repeated: one request of each
/// cache outcome. This is not drawn from any recorded traffic; it is the
/// smallest fixed mix in which every outcome (miss, exact hit, warm
/// start) is measured, each on a third of the requests.
pub const SERVE_PATTERN: [Reuse; 3] = [Reuse::Unique, Reuse::Repeat, Reuse::NearMiss];

/// The `serve-repeat` request list. Unique scripts alternate between
/// the deterministic and the search families; a repeat resends the
/// unique script just before it byte for byte, and a near miss redraws
/// that script's characters.
pub fn serve_cases(seed: u64, n: usize) -> Vec<Case> {
    let mut rng = Rng::new(seed);
    let mut ladder = Ladder::new(&mut rng);
    let mut uniques = 0;
    let mut last: Option<(Template, u64, u64, Case)> = None;
    let mut out: Vec<Case> = Vec::with_capacity(n);
    for i in 0..n {
        let (fill, solver) = (rng.next_u64(), rng.next_u64() >> 32);
        let case = match (SERVE_PATTERN[i % SERVE_PATTERN.len()], &last) {
            (Reuse::Repeat, Some((.., case))) => case.clone(),
            (Reuse::NearMiss, Some((template, shape, solver, _))) => {
                make(*template, *shape, fill, *solver)
            }
            _ => {
                let template = if uniques % 2 == 0 {
                    DETERMINED[(uniques / 2) % DETERMINED.len()]
                } else {
                    SEARCH[(uniques / 2) % SEARCH.len()]
                };
                uniques += 1;
                let shape = ladder.next(template);
                let case = make(template, shape, fill, solver);
                last = Some((template, shape, solver, case.clone()));
                case
            }
        };
        out.push(case);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(cycle_cases(&SEARCH, 9, 40), cycle_cases(&SEARCH, 9, 40));
        assert_ne!(cycle_cases(&SEARCH, 9, 40), cycle_cases(&SEARCH, 10, 40));
        assert_eq!(serve_cases(3, 50), serve_cases(3, 50));
    }

    #[test]
    fn near_miss_keeps_the_shape() {
        let a = make(Template::Reverse, 1, 2, 0);
        let b = make(Template::Reverse, 1, 3, 0);
        assert_ne!(a.source, b.source);
        assert_eq!(a.source.len(), b.source.len());
    }
}
