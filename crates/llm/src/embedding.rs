//! Hashed bag-of-words embeddings.
//!
//! Standing in for the proprietary embedding service the paper's RAG
//! pipeline uses (§3.2) is a classic feature-hashing bag-of-words
//! vectorizer: deterministic, dependency-free, and good enough to rank
//! texts by lexical relatedness. The simulated model reads only how many
//! demonstrations a prompt carries, so nothing ranks demonstrations; the
//! console and `fisql serve` use these vectors to resolve a typed
//! question onto the nearest corpus question.

use fisql_sqlkit::fnv64;

/// Embedding dimensionality.
pub const DIM: usize = 256;

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(pub [f32; DIM]);

impl Embedding {
    /// Embeds a text by hashing lower-cased alphanumeric tokens into
    /// [`DIM`] buckets (with a sign hash to reduce collision bias) and
    /// L2-normalizing.
    pub fn embed(text: &str) -> Embedding {
        let mut v = [0f32; DIM];
        for token in tokenize(text) {
            let h = fnv64(token.as_bytes());
            let bucket = (h % DIM as u64) as usize;
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[bucket] += sign;
        }
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        Embedding(v)
    }

    /// Cosine similarity (vectors are unit-norm, so this is a dot
    /// product). Empty texts embed to the zero vector and score 0 against
    /// everything.
    pub fn cosine(&self, other: &Embedding) -> f32 {
        self.0.iter().zip(other.0.iter()).map(|(a, b)| a * b).sum()
    }
}

/// Lower-cased alphanumeric tokens plus word bigrams (bigrams let
/// "release year" match "song_release_year" better than unigrams alone).
pub fn tokenize(text: &str) -> Vec<String> {
    let unigrams: Vec<String> = text
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect();
    let mut tokens = unigrams.clone();
    for w in unigrams.windows(2) {
        tokens.push(format!("{}_{}", w[0], w[1]));
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_have_similarity_one() {
        let a = Embedding::embed("how many singers are there");
        let b = Embedding::embed("how many singers are there");
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn related_texts_beat_unrelated() {
        let q = Embedding::embed("how many audiences were created in January");
        let related = Embedding::embed("count the audiences created in February");
        let unrelated = Embedding::embed("average salary of pilots by airline");
        assert!(q.cosine(&related) > q.cosine(&unrelated));
    }

    #[test]
    fn case_and_punctuation_insensitive() {
        let a = Embedding::embed("List the NAMES, of singers!");
        let b = Embedding::embed("list the names of singers");
        assert!(a.cosine(&b) > 0.8);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let z = Embedding::embed("");
        let a = Embedding::embed("anything");
        assert_eq!(z.cosine(&a), 0.0);
        assert_eq!(z.cosine(&z), 0.0);
    }

    #[test]
    fn tokenizer_emits_bigrams() {
        let toks = tokenize("release year");
        assert!(toks.contains(&"release_year".to_string()));
    }

    #[test]
    fn underscores_split_identifiers() {
        let toks = tokenize("song_release_year");
        assert!(toks.contains(&"release".to_string()));
        assert!(toks.contains(&"song_release".to_string()));
    }
}
