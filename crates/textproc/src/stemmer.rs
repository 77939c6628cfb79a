//! The Porter stemming algorithm (M.F. Porter, 1980, "An algorithm for suffix
//! stripping", *Program* 14(3)).
//!
//! TDT-era document clustering pipelines (including the paper's lineage,
//! F²ICM / C²ICM / Scatter-Gather) conventionally index stemmed terms. This is
//! a complete, dependency-free implementation of the original algorithm,
//! validated against the published sample vocabulary behaviour in the unit
//! tests below.

/// A stateless Porter stemmer.
///
/// ```
/// use nidc_textproc::PorterStemmer;
///
/// let s = PorterStemmer::new();
/// assert_eq!(s.stem("caresses"), "caress");
/// assert_eq!(s.stem("ponies"), "poni");
/// assert_eq!(s.stem("relational"), "relat");
/// assert_eq!(s.stem("probate"), "probat");
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct PorterStemmer;

impl PorterStemmer {
    /// Creates a stemmer.
    pub fn new() -> Self {
        PorterStemmer
    }

    /// Stems `word`, returning the stem.
    ///
    /// The input is expected to be lower-case ASCII letters; words shorter
    /// than three characters and words containing non-ASCII-alphabetic bytes
    /// are returned unchanged (standard practice — Porter leaves 1–2 letter
    /// words alone and the algorithm is defined over a–z only).
    pub fn stem(&self, word: &str) -> String {
        let mut w = word.to_owned();
        self.stem_in_place(&mut w);
        w
    }

    /// Stems `word` in place, as [`PorterStemmer::stem`] does. Every step
    /// only truncates the word or appends ASCII letters, and no step leaves
    /// it longer than it was, so a buffer sized for the token never grows.
    pub(crate) fn stem_in_place(&self, w: &mut String) {
        if w.len() <= 2 || !w.bytes().all(|b| b.is_ascii_lowercase()) {
            return;
        }
        step_1a(w);
        step_1b(w);
        step_1c(w);
        step_2(w);
        step_3(w);
        step_4(w);
        step_5a(w);
        step_5b(w);
    }
}

/// Is `w[i]` a consonant in Porter's sense?
fn is_consonant(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => {
            if i == 0 {
                true
            } else {
                // y is a consonant iff preceded by a vowel position
                !is_consonant(w, i - 1)
            }
        }
        _ => true,
    }
}

/// The measure m of `w[..len]`: the number of VC sequences in the form
/// `[C](VC)^m[V]`.
fn measure(w: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // skip initial consonants
    while i < len && is_consonant(w, i) {
        i += 1;
    }
    loop {
        // skip vowels
        while i < len && !is_consonant(w, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        // skip consonants: a VC boundary found
        while i < len && is_consonant(w, i) {
            i += 1;
        }
        m += 1;
        if i >= len {
            return m;
        }
    }
}

/// Does the stem `w[..len]` contain a vowel?
fn has_vowel(w: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_consonant(w, i))
}

/// Does `w[..len]` end in a double consonant?
fn ends_double_consonant(w: &[u8], len: usize) -> bool {
    len >= 2 && w[len - 1] == w[len - 2] && is_consonant(w, len - 1)
}

/// Does `w[..len]` end consonant-vowel-consonant, where the final consonant is
/// not w, x or y? (The `*o` condition.)
fn ends_cvc(w: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    let (a, b, c) = (len - 3, len - 2, len - 1);
    is_consonant(w, a)
        && !is_consonant(w, b)
        && is_consonant(w, c)
        && !matches!(w[c], b'w' | b'x' | b'y')
}

/// If `w` ends with `suffix` and the stem before it has measure > `min_m`,
/// replace the suffix with `replacement` and return true.
fn replace_if_m(w: &mut String, suffix: &str, replacement: &str, min_m: usize) -> bool {
    if !w.ends_with(suffix) {
        return false;
    }
    let stem_len = w.len() - suffix.len();
    if measure(w.as_bytes(), stem_len) > min_m {
        w.truncate(stem_len);
        w.push_str(replacement);
        true
    } else {
        false
    }
}

fn step_1a(w: &mut String) {
    if w.ends_with("sses") {
        w.truncate(w.len() - 2); // sses -> ss
    } else if w.ends_with("ies") {
        w.truncate(w.len() - 2); // ies -> i
    } else if w.ends_with("ss") {
        // unchanged
    } else if w.ends_with('s') {
        w.truncate(w.len() - 1);
    }
}

fn step_1b(w: &mut String) {
    if w.ends_with("eed") {
        let stem_len = w.len() - 3;
        if measure(w.as_bytes(), stem_len) > 0 {
            w.truncate(w.len() - 1); // eed -> ee
        }
        return;
    }
    let stripped = if w.ends_with("ed") && has_vowel(w.as_bytes(), w.len() - 2) {
        w.truncate(w.len() - 2);
        true
    } else if w.ends_with("ing") && has_vowel(w.as_bytes(), w.len() - 3) {
        w.truncate(w.len() - 3);
        true
    } else {
        false
    };
    if stripped {
        let b = w.as_bytes();
        let n = b.len();
        if w.ends_with("at") || w.ends_with("bl") || w.ends_with("iz") {
            w.push('e');
        } else if ends_double_consonant(b, n) && !matches!(b[n - 1], b'l' | b's' | b'z') {
            w.truncate(n - 1);
        } else if measure(b, n) == 1 && ends_cvc(b, n) {
            w.push('e');
        }
    }
}

fn step_1c(w: &mut String) {
    if w.ends_with('y') && has_vowel(w.as_bytes(), w.len() - 1) {
        w.pop();
        w.push('i');
    }
}

fn step_2(w: &mut String) {
    const RULES: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ];
    for &(suffix, replacement) in RULES {
        if w.ends_with(suffix) {
            replace_if_m(w, suffix, replacement, 0);
            return;
        }
    }
}

fn step_3(w: &mut String) {
    const RULES: &[(&str, &str)] = &[
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ];
    for &(suffix, replacement) in RULES {
        if w.ends_with(suffix) {
            replace_if_m(w, suffix, replacement, 0);
            return;
        }
    }
}

fn step_4(w: &mut String) {
    const SUFFIXES: &[&str] = &[
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ou",
        "ism", "ate", "iti", "ous", "ive", "ize",
    ];
    for &suffix in SUFFIXES {
        if w.ends_with(suffix) {
            let stem_len = w.len() - suffix.len();
            if measure(w.as_bytes(), stem_len) > 1 {
                w.truncate(stem_len);
            }
            return;
        }
    }
    // (m>1 and (*S or *T)) ION ->
    if w.ends_with("ion") {
        let stem_len = w.len() - 3;
        let b = w.as_bytes();
        if measure(b, stem_len) > 1 && stem_len > 0 && matches!(b[stem_len - 1], b's' | b't') {
            w.truncate(stem_len);
        }
    }
}

fn step_5a(w: &mut String) {
    if w.ends_with('e') {
        let stem_len = w.len() - 1;
        let m = measure(w.as_bytes(), stem_len);
        if m > 1 || (m == 1 && !ends_cvc(w.as_bytes(), stem_len)) {
            w.truncate(stem_len);
        }
    }
}

fn step_5b(w: &mut String) {
    let b = w.as_bytes();
    let n = b.len();
    if measure(b, n) > 1 && ends_double_consonant(b, n) && b[n - 1] == b'l' {
        w.truncate(n - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stem(s: &str) -> String {
        PorterStemmer::new().stem(s)
    }

    #[test]
    fn step1a_examples() {
        assert_eq!(stem("caresses"), "caress");
        assert_eq!(stem("ponies"), "poni");
        assert_eq!(stem("caress"), "caress");
        assert_eq!(stem("cats"), "cat");
    }

    #[test]
    fn step1b_examples() {
        assert_eq!(stem("feed"), "feed");
        assert_eq!(stem("agreed"), "agre");
        assert_eq!(stem("plastered"), "plaster");
        assert_eq!(stem("bled"), "bled");
        assert_eq!(stem("motoring"), "motor");
        assert_eq!(stem("sing"), "sing");
        assert_eq!(stem("conflated"), "conflat");
        assert_eq!(stem("troubled"), "troubl");
        assert_eq!(stem("sized"), "size");
        assert_eq!(stem("hopping"), "hop");
        assert_eq!(stem("tanned"), "tan");
        assert_eq!(stem("falling"), "fall");
        assert_eq!(stem("hissing"), "hiss");
        assert_eq!(stem("fizzed"), "fizz");
        assert_eq!(stem("failing"), "fail");
        assert_eq!(stem("filing"), "file");
    }

    #[test]
    fn step1c_examples() {
        assert_eq!(stem("happy"), "happi");
        assert_eq!(stem("sky"), "sky");
    }

    #[test]
    fn step2_examples() {
        assert_eq!(stem("relational"), "relat");
        assert_eq!(stem("conditional"), "condit");
        assert_eq!(stem("rational"), "ration");
        assert_eq!(stem("valenci"), "valenc");
        assert_eq!(stem("hesitanci"), "hesit");
        assert_eq!(stem("digitizer"), "digit");
        assert_eq!(stem("conformabli"), "conform");
        assert_eq!(stem("radicalli"), "radic");
        assert_eq!(stem("differentli"), "differ");
        assert_eq!(stem("vileli"), "vile");
        assert_eq!(stem("analogousli"), "analog");
        assert_eq!(stem("vietnamization"), "vietnam");
        assert_eq!(stem("predication"), "predic");
        assert_eq!(stem("operator"), "oper");
        assert_eq!(stem("feudalism"), "feudal");
        assert_eq!(stem("decisiveness"), "decis");
        assert_eq!(stem("hopefulness"), "hope");
        assert_eq!(stem("callousness"), "callous");
        assert_eq!(stem("formaliti"), "formal");
        assert_eq!(stem("sensitiviti"), "sensit");
        assert_eq!(stem("sensibiliti"), "sensibl");
    }

    #[test]
    fn step3_examples() {
        assert_eq!(stem("triplicate"), "triplic");
        assert_eq!(stem("formative"), "form");
        assert_eq!(stem("formalize"), "formal");
        assert_eq!(stem("electriciti"), "electr");
        assert_eq!(stem("electrical"), "electr");
        assert_eq!(stem("hopeful"), "hope");
        assert_eq!(stem("goodness"), "good");
    }

    #[test]
    fn step4_examples() {
        assert_eq!(stem("revival"), "reviv");
        assert_eq!(stem("allowance"), "allow");
        assert_eq!(stem("inference"), "infer");
        assert_eq!(stem("airliner"), "airlin");
        assert_eq!(stem("gyroscopic"), "gyroscop");
        assert_eq!(stem("adjustable"), "adjust");
        assert_eq!(stem("defensible"), "defens");
        assert_eq!(stem("irritant"), "irrit");
        assert_eq!(stem("replacement"), "replac");
        assert_eq!(stem("adjustment"), "adjust");
        assert_eq!(stem("dependent"), "depend");
        assert_eq!(stem("adoption"), "adopt");
        assert_eq!(stem("homologou"), "homolog");
        assert_eq!(stem("communism"), "commun");
        assert_eq!(stem("activate"), "activ");
        assert_eq!(stem("angulariti"), "angular");
        assert_eq!(stem("homologous"), "homolog");
        assert_eq!(stem("effective"), "effect");
        assert_eq!(stem("bowdlerize"), "bowdler");
    }

    #[test]
    fn step5_examples() {
        assert_eq!(stem("probate"), "probat");
        assert_eq!(stem("rate"), "rate");
        assert_eq!(stem("cease"), "ceas");
        assert_eq!(stem("controll"), "control");
        assert_eq!(stem("roll"), "roll");
    }

    #[test]
    fn short_and_non_alpha_words_pass_through() {
        assert_eq!(stem("a"), "a");
        assert_eq!(stem("at"), "at");
        assert_eq!(stem("c3po"), "c3po");
        assert_eq!(stem("Tokyo"), "Tokyo"); // uppercase not lowercased here
    }

    #[test]
    fn related_forms_share_a_stem() {
        for group in [
            vec![
                "connect",
                "connected",
                "connecting",
                "connection",
                "connections",
            ],
            vec!["cluster", "clusters", "clustered", "clustering"],
        ] {
            let stems: Vec<_> = group.iter().map(|w| stem(w)).collect();
            assert!(
                stems.windows(2).all(|w| w[0] == w[1]),
                "group {group:?} produced stems {stems:?}"
            );
        }
    }

    #[test]
    fn measure_function() {
        // From the paper: tr=1? Check canonical examples.
        let cases: &[(&str, usize)] = &[
            ("tr", 0),
            ("ee", 0),
            ("tree", 0),
            ("y", 0),
            ("by", 0),
            ("trouble", 1),
            ("oats", 1),
            ("trees", 1),
            ("ivy", 1),
            ("troubles", 2),
            ("private", 2),
            ("oaten", 2),
            ("orrery", 2),
        ];
        for &(w, m) in cases {
            assert_eq!(measure(w.as_bytes(), w.len()), m, "measure({w})");
        }
    }

    #[test]
    fn stemming_is_idempotent_on_common_words() {
        let s = PorterStemmer::new();
        for w in [
            "generalization",
            "oscillators",
            "characterization",
            "national",
            "governing",
        ] {
            let once = s.stem(w);
            let twice = s.stem(&once);
            // Porter is not idempotent in general, but the stem must be stable
            // enough not to collapse to empty.
            assert!(!twice.is_empty());
        }
    }
}
