//! The schema lexicon: every table and column name of one schema in its
//! humanized spelling ("song_release_year" → "song release year"), built
//! once per distinct schema and shared by the three feedback linkers —
//! the interpreter's cue extraction and de-linker (`fisql_core`) and
//! [`FeedbackCues`](crate::locate::FeedbackCues) for the repair search.
//!
//! A lexicon holds no per-name `String`s: names live in two arenas (the
//! schema spellings, and their humanized lowercase forms), and every
//! ordering is a list of entry indices into them:
//!
//! - [`ranked_columns`](SchemaLexicon::ranked_columns): columns by
//!   (humanized length desc, humanized asc, schema order) — the
//!   interpreter's longest-match order;
//! - [`entities`](SchemaLexicon::entities): tables and first-seen
//!   columns by (humanized length desc, tables first, humanized asc) —
//!   the repair search's order;
//! - [`idents`](SchemaLexicon::idents): multi-word names by spelling
//!   length desc — the de-linker's order.
//!
//! Names shorter than three humanized bytes are left out of the first
//! two orderings; their linkers never match them.
//!
//! **The prefilter.** Each linker matches a humanized name at ASCII word
//! boundaries, so a match's first word — the name's leading run of
//! ASCII letters and digits — is a whole word of the text, or, when the
//! name is one word, that word with a plural `s`.
//! [`mentions`](SchemaLexicon::mentions) tokenizes the text once and
//! looks its words up in a first-word index; a linker skips every entry
//! it leaves out. Masking a
//! match only removes words from the text, so the words of the unmasked
//! text bound every later scan. Names that start without a word (a
//! leading `_`) are never skipped.
//!
//! **The memo.** [`SchemaLexicon::shared`] keeps one lexicon per schema
//! for the life of the process, keyed by FNV-1a over the names; a hit is
//! confirmed name by name, so a key collision rebuilds instead of
//! linking against the wrong schema. Nothing is evicted: the entries are
//! bounded by the distinct schemas a process links against (200 for the
//! full-scale corpus, one for the daemon's fixed corpus), a few KiB each.

use crate::check::SchemaInfo;
use crate::hash::Fnv64;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, OnceLock, RwLock};

/// Underscores to spaces, lowercased — the verbalizer's naming scheme,
/// and the spelling every linker matches feedback against.
pub fn humanize(name: &str) -> String {
    spaced(name).to_lowercase()
}

/// Underscores to spaces, case kept (`song_release_year` → "song
/// release year") — how generated questions, simulated feedback and
/// query explanations spell identifiers and printed expressions.
pub fn spaced(ident: &str) -> String {
    ident.replace('_', " ")
}

/// One table or column name.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Index of the owning table (of itself, for a table).
    table: u32,
    /// End of the schema spelling in `names`; it starts where the
    /// previous entry's ends.
    name_end: u32,
    /// End of the humanized spelling in `text`, likewise.
    human_end: u32,
    /// Byte length of the humanized spelling's first word.
    word_len: u32,
}

/// The humanized names of one schema, with the orderings and the
/// first-word index the feedback linkers share. Entries are indexed in
/// schema order: each table, then its columns.
#[derive(Debug, Default)]
pub struct SchemaLexicon {
    /// Schema spellings, concatenated.
    names: Box<str>,
    /// Humanized spellings, concatenated.
    text: Box<str>,
    entries: Box<[Entry]>,
    /// The entry of each table, in schema order.
    tables: Box<[u32]>,
    ranked_columns: Box<[u32]>,
    entities: Box<[u32]>,
    idents: Box<[u32]>,
    /// Entries with a first word, sorted by it.
    by_first_word: Box<[u32]>,
    /// Entries without one: never skipped.
    wordless: Box<[u32]>,
}

/// The entries a text may mention (see [`SchemaLexicon::mentions`]).
#[derive(Debug)]
pub struct Mentions(Vec<u64>);

impl Mentions {
    /// Whether entry `e` survives the prefilter.
    pub fn contains(&self, e: u32) -> bool {
        (self.0[e as usize / 64] >> (e % 64)) & 1 == 1
    }

    fn insert(&mut self, e: u32) {
        self.0[e as usize / 64] |= 1 << (e % 64);
    }
}

type Memo = RwLock<HashMap<u64, Arc<SchemaLexicon>>>;

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(Memo::default)
}

/// FNV-1a over the names, with separators no UTF-8 name contains.
fn memo_key<'a, T, C>(tables: T) -> u64
where
    T: IntoIterator<Item = (&'a str, C)>,
    C: IntoIterator<Item = &'a str>,
{
    let mut h = Fnv64::new();
    for (table, columns) in tables {
        h.update(table.as_bytes());
        for column in columns {
            h.update(&[0xFE]);
            h.update(column.as_bytes());
        }
        h.update(&[0xFF]);
    }
    h.finish()
}

impl SchemaLexicon {
    /// The process-wide lexicon for the schema whose tables (each with
    /// its column names, in schema order) `tables` yields, built on
    /// first use.
    pub fn shared<'a, T, C>(tables: T) -> Arc<SchemaLexicon>
    where
        T: IntoIterator<Item = (&'a str, C)> + Clone,
        C: IntoIterator<Item = &'a str>,
    {
        let key = memo_key(tables.clone());
        let hit = memo()
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&key)
            .cloned();
        if let Some(lexicon) = hit {
            if lexicon.has_names(tables.clone()) {
                return lexicon;
            }
        }
        let lexicon = Arc::new(SchemaLexicon::build(tables));
        memo()
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(key, Arc::clone(&lexicon));
        lexicon
    }

    /// [`SchemaLexicon::shared`] for an analyzer schema.
    pub fn of_schema(schema: &SchemaInfo) -> Arc<SchemaLexicon> {
        SchemaLexicon::shared(
            schema
                .tables
                .iter()
                .map(|t| (t.name.as_str(), t.columns.iter().map(|c| c.name.as_str()))),
        )
    }

    /// Builds a lexicon without consulting the memo.
    fn build<'a, T, C>(tables: T) -> SchemaLexicon
    where
        T: IntoIterator<Item = (&'a str, C)>,
        C: IntoIterator<Item = &'a str>,
    {
        let mut names = String::new();
        let mut text = String::new();
        let mut entries = Vec::new();
        let mut table_entries = Vec::new();
        for (t, (table, columns)) in tables.into_iter().enumerate() {
            table_entries.push(entries.len() as u32);
            for name in std::iter::once(table).chain(columns) {
                let start = text.len();
                names.push_str(name);
                text.push_str(&humanize(name));
                let word_len = text[start..]
                    .bytes()
                    .take_while(u8::is_ascii_alphanumeric)
                    .count();
                entries.push(Entry {
                    table: t as u32,
                    name_end: names.len() as u32,
                    human_end: text.len() as u32,
                    word_len: word_len as u32,
                });
            }
        }
        // Boxed slices hold no spare capacity: the memo keeps every
        // lexicon for the life of the process.
        let lex = SchemaLexicon {
            names: names.into(),
            text: text.into(),
            entries: entries.into(),
            tables: table_entries.into(),
            ..SchemaLexicon::default()
        };
        let all = 0..lex.entries.len() as u32;
        let human = |e: u32| lex.human(e);

        let mut ranked_columns: Vec<u32> = all
            .clone()
            .filter(|&e| !lex.is_table(e) && human(e).len() >= 3)
            .collect();
        ranked_columns.sort_by(|&a, &b| {
            let (ha, hb) = (human(a), human(b));
            hb.len().cmp(&ha.len()).then_with(|| ha.cmp(hb))
        });

        let mut seen = HashSet::new();
        let mut entities: Vec<u32> = all
            .clone()
            .filter(|&e| lex.is_table(e) || seen.insert(human(e)))
            .filter(|&e| human(e).len() >= 3)
            .collect();
        entities.sort_by(|&a, &b| {
            let (ha, hb) = (human(a), human(b));
            hb.len()
                .cmp(&ha.len())
                .then_with(|| lex.is_table(b).cmp(&lex.is_table(a)))
                .then_with(|| ha.cmp(hb))
        });

        let mut idents: Vec<u32> = all.clone().filter(|&e| human(e).contains(' ')).collect();
        idents.sort_by_key(|&e| std::cmp::Reverse(lex.name(e).len()));

        let (mut by_first_word, wordless): (Vec<u32>, Vec<u32>) =
            all.partition(|&e| lex.entries[e as usize].word_len > 0);
        by_first_word.sort_by_key(|&e| lex.first_word(e));

        SchemaLexicon {
            ranked_columns: ranked_columns.into(),
            entities: entities.into(),
            idents: idents.into(),
            by_first_word: by_first_word.into(),
            wordless: wordless.into(),
            ..lex
        }
    }

    /// Whether this lexicon was built from exactly these names.
    fn has_names<'a, T, C>(&self, tables: T) -> bool
    where
        T: IntoIterator<Item = (&'a str, C)>,
        C: IntoIterator<Item = &'a str>,
    {
        let mut e = 0u32;
        for (t, (table, columns)) in tables.into_iter().enumerate() {
            if self.tables.get(t) != Some(&e) || self.name(e) != table {
                return false;
            }
            e += 1;
            for column in columns {
                let ours = self.entries.get(e as usize).map(|x| x.table);
                if ours != Some(t as u32) || self.is_table(e) || self.name(e) != column {
                    return false;
                }
                e += 1;
            }
        }
        e as usize == self.entries.len()
    }

    /// Entry `e`'s bytes in the arena whose ends `end` reads: from the
    /// previous entry's end to its own.
    fn span(&self, e: u32, end: fn(&Entry) -> u32) -> Range<usize> {
        let e = e as usize;
        let start = e.checked_sub(1).map_or(0, |p| end(&self.entries[p]));
        start as usize..end(&self.entries[e]) as usize
    }

    /// The schema spelling of entry `e`.
    pub fn name(&self, e: u32) -> &str {
        &self.names[self.span(e, |x| x.name_end)]
    }

    /// The humanized spelling of entry `e`.
    pub fn human(&self, e: u32) -> &str {
        &self.text[self.span(e, |x| x.human_end)]
    }

    fn first_word(&self, e: u32) -> &str {
        &self.human(e)[..self.entries[e as usize].word_len as usize]
    }

    /// Index of the table entry `e` names or belongs to.
    pub fn table(&self, e: u32) -> usize {
        self.entries[e as usize].table as usize
    }

    /// The schema spelling of the table entry `e` names or belongs to.
    pub fn table_name(&self, e: u32) -> &str {
        self.name(self.tables[self.table(e)])
    }

    /// Whether entry `e` is a table (not a column).
    pub fn is_table(&self, e: u32) -> bool {
        self.tables[self.table(e)] == e
    }

    /// Table entries in schema order.
    pub fn tables(&self) -> &[u32] {
        &self.tables
    }

    /// Column entries of humanized length ≥ 3, longest first, grouped
    /// into runs of equal humanized length; each run is ordered by
    /// humanized name, then schema order.
    pub fn ranked_columns(&self) -> impl Iterator<Item = &[u32]> {
        self.ranked_columns
            .chunk_by(|&a, &b| self.human(a).len() == self.human(b).len())
    }

    /// Table entries and the first column entry of each humanized
    /// spelling, of humanized length ≥ 3: longest first, tables before
    /// columns of equal length, then by humanized name, then schema
    /// order.
    pub fn entities(&self) -> &[u32] {
        &self.entities
    }

    /// Entries whose humanized spelling has a space, by schema-spelling
    /// length desc, then schema order.
    pub fn idents(&self) -> &[u32] {
        &self.idents
    }

    /// The entries `lower` (a lowercased text) may mention: those whose
    /// first word is a word of `lower`, one-word entries whose plural is,
    /// and entries without a first word.
    pub fn mentions(&self, lower: &str) -> Mentions {
        let mut found = Mentions(vec![0; self.entries.len().div_ceil(64)]);
        for &e in &self.wordless {
            found.insert(e);
        }
        for word in lower
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|w| !w.is_empty())
        {
            for &e in self.with_first_word(word) {
                found.insert(e);
            }
            if let Some(stem) = word.strip_suffix('s') {
                for &e in self.with_first_word(stem) {
                    if self.first_word(e).len() == self.human(e).len() {
                        found.insert(e);
                    }
                }
            }
        }
        found
    }

    fn with_first_word(&self, word: &str) -> &[u32] {
        let from = self
            .by_first_word
            .partition_point(|&e| self.first_word(e) < word);
        let len = self.by_first_word[from..].partition_point(|&e| self.first_word(e) == word);
        &self.by_first_word[from..from + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lexicon() -> SchemaLexicon {
        SchemaLexicon::build([
            ("singer", vec!["singer_id", "name", "song_name", "age"]),
            ("concert", vec!["concert_id", "singer_id", "year"]),
            ("hkg_dim_segment", vec!["createdTime", "_hidden", "id"]),
        ])
    }

    fn humans(lex: &SchemaLexicon, entries: &[u32]) -> Vec<String> {
        entries.iter().map(|&e| lex.human(e).to_string()).collect()
    }

    #[test]
    fn humanize_lowercases_and_spaces() {
        assert_eq!(humanize("createdTime"), "createdtime");
        assert_eq!(humanize("Song_Release_Year"), "song release year");
        assert_eq!(humanize("_hidden_"), " hidden ");
    }

    #[test]
    fn orderings_match_each_linker() {
        let lex = lexicon();
        let ranked: Vec<Vec<String>> = lex.ranked_columns().map(|r| humans(&lex, r)).collect();
        assert_eq!(
            ranked,
            vec![
                vec!["createdtime"],
                vec!["concert id"],
                vec!["singer id", "singer id", "song name"],
                vec![" hidden"],
                vec!["name", "year"],
                vec!["age"],
            ]
        );
        assert_eq!(
            humans(&lex, lex.entities()),
            vec![
                "hkg dim segment",
                "createdtime",
                "concert id",
                "singer id",
                "song name",
                "concert",
                " hidden",
                "singer",
                "name",
                "year",
                "age",
            ]
        );
        assert_eq!(
            lex.idents()
                .iter()
                .map(|&e| lex.name(e))
                .collect::<Vec<_>>(),
            vec![
                "hkg_dim_segment",
                "concert_id",
                "singer_id",
                "song_name",
                "singer_id",
                "_hidden"
            ]
        );
        let id = lex.idents()[4];
        assert_eq!((lex.table(id), lex.table_name(id)), (1, "concert"));
        assert!(!lex.is_table(id) && lex.is_table(lex.tables()[2]));
    }

    #[test]
    fn mentions_keep_first_words_plurals_and_wordless_names() {
        let lex = lexicon();
        let found = lex.mentions("list the names and years of each singer");
        let kept: Vec<&str> = (0..lex.entries.len() as u32)
            .filter(|&e| found.contains(e))
            .map(|e| lex.name(e))
            .collect();
        assert_eq!(
            kept,
            vec![
                "singer",
                "singer_id",
                "name",
                "singer_id",
                "year",
                "_hidden"
            ]
        );
    }

    #[test]
    fn shared_lexicons_are_memoized_and_checked() {
        let a = SchemaLexicon::shared([("t_memo", ["col_a"])]);
        let b = SchemaLexicon::shared([("t_memo", ["col_a"])]);
        assert!(Arc::ptr_eq(&a, &b));
        let c = SchemaLexicon::shared([("t_memo", ["col_b"])]);
        assert_eq!(c.name(1), "col_b");
        assert!(!a.has_names([("t_memo", ["col_b"])]));
        assert!(!a.has_names([("t_memo", ["col_a", "col_b"])]));
        assert!(!a.has_names([("t_memo", [])]));
        assert!(a.has_names([("t_memo", ["col_a"])]));
    }
}
