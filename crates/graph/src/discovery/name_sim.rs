//! Name-based (linguistic) column similarity.
//!
//! COMA's linguistic matchers compare identifiers after normalization; we
//! implement the same idea: tokenize `snake_case` / `camelCase` / dotted
//! names, then blend token-set Jaccard with Jaro-Winkler string similarity.

/// Split an identifier into lowercase tokens on `_`, `-`, `.`, spaces, and
/// camelCase boundaries; digits form their own tokens.
pub(crate) fn tokenize(name: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut prev_lower = false;
    let mut prev_digit = false;
    for c in name.chars() {
        if c == '_' || c == '-' || c == '.' || c.is_whitespace() {
            if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
            prev_lower = false;
            prev_digit = false;
            continue;
        }
        let boundary = (c.is_uppercase() && prev_lower)
            || (c.is_ascii_digit() != prev_digit && !cur.is_empty() && (c.is_ascii_digit() || prev_digit));
        if boundary && !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
        cur.extend(c.to_lowercase());
        prev_lower = c.is_lowercase();
        prev_digit = c.is_ascii_digit();
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// Jaccard similarity of the token sets of two identifiers.
pub(crate) fn token_jaccard(a: &str, b: &str) -> f64 {
    let ta: std::collections::HashSet<String> = tokenize(a).into_iter().collect();
    let tb: std::collections::HashSet<String> = tokenize(b).into_iter().collect();
    if ta.is_empty() && tb.is_empty() {
        return 0.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    let union = ta.union(&tb).count() as f64;
    inter / union
}

/// Jaro similarity of two strings, in `[0, 1]`.
pub(crate) fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    let mut match_idx_b: Vec<usize> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches_a.push(ca);
                match_idx_b.push(j);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    // Transpositions: compare matched chars in order of b.
    let mut b_matches: Vec<(usize, char)> = match_idx_b
        .iter()
        .zip(&matches_a)
        .map(|(&j, &c)| (j, c))
        .collect();
    b_matches.sort_by_key(|&(j, _)| j);
    let t = matches_a
        .iter()
        .zip(b_matches.iter().map(|&(_, c)| c))
        .filter(|(a, b)| **a != *b)
        .count() as f64
        / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by common-prefix length (up to 4).
pub(crate) fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    (j + prefix * 0.1 * (1.0 - j)).min(1.0)
}

/// Combined name similarity: the max of token-set Jaccard and Jaro-Winkler
/// over the lowercase raw names (COMA composes matchers by aggregation; max
/// rewards either a shared vocabulary or a near-identical spelling).
pub fn name_similarity(a: &str, b: &str) -> f64 {
    let jw = jaro_winkler(&a.to_lowercase(), &b.to_lowercase());
    token_jaccard(a, b).max(jw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_snake_and_camel() {
        assert_eq!(tokenize("applicant_id"), vec!["applicant", "id"]);
        assert_eq!(tokenize("creditScore"), vec!["credit", "score"]);
        assert_eq!(tokenize("Loan.History2"), vec!["loan", "history", "2"]);
    }

    #[test]
    fn tokenize_empty() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("___").is_empty());
    }

    #[test]
    fn jaccard_identical_tokens() {
        assert_eq!(token_jaccard("credit_score", "score_credit"), 1.0);
        assert_eq!(token_jaccard("a_b", "c_d"), 0.0);
        assert!((token_jaccard("credit_score", "credit_id") - (1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn jaro_known_values() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("abc", ""), 0.0);
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-4);
        assert!((jaro("dixon", "dicksonx") - 0.766667).abs() < 1e-4);
    }

    #[test]
    fn jaro_winkler_boosts_prefix() {
        let j = jaro("martha", "marhta");
        let jw = jaro_winkler("martha", "marhta");
        assert!(jw > j);
        assert!((jw - 0.961111).abs() < 1e-4);
    }

    #[test]
    fn name_similarity_is_symmetric_and_bounded() {
        let pairs = [("applicant_id", "applicantID"), ("credit", "debit"), ("x", "y")];
        for (a, b) in pairs {
            let s1 = name_similarity(a, b);
            let s2 = name_similarity(b, a);
            assert!((s1 - s2).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&s1));
        }
    }

    #[test]
    fn same_semantics_different_style_scores_high() {
        assert!(name_similarity("applicant_id", "ApplicantId") > 0.9);
        assert!(name_similarity("property_value", "value.property") > 0.9);
    }

    #[test]
    fn unrelated_names_score_low() {
        // Jaro-Winkler is lenient, so "low" means clearly below a strong
        // match; disjoint alphabets score near zero.
        assert!(name_similarity("zip_code", "income") < 0.75);
        assert!(name_similarity("aaaa", "zzzz") < 0.1);
    }
}
