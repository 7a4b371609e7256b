//! RFC-4180 CSV export of the collected-tweet table.
//!
//! The JSON dataset (see [`crate::persist`]) is the full release artifact;
//! the CSV view exists for spreadsheet- and pandas-style consumers of the
//! §3.1 search results. Tweet text is adversarial by construction — the
//! text simulator emits commas, quotes, and handles, and real release data
//! would contain newlines — so the writer quotes per RFC 4180 (double any
//! embedded `"`, quote any field containing `,`, `"`, CR, or LF) and the
//! reader is strict: ragged rows, unterminated quotes, bare quotes inside
//! unquoted fields, and unknown enum spellings are all
//! [`FlockError::MalformedRecord`], never silently-corrupted rows.

use crate::dataset::{CollectedTweet, QueryKind};
use flock_core::{Day, FlockError, Result, TweetId, TwitterUserId};

/// Column order of the export, also written as the header row.
const HEADER: &str = "id,author,day,source,via,text";

fn via_str(via: QueryKind) -> &'static str {
    match via {
        QueryKind::Keyword => "keyword",
        QueryKind::Hashtag => "hashtag",
        QueryKind::InstanceLink => "instance_link",
    }
}

fn via_parse(s: &str) -> Result<QueryKind> {
    match s {
        "keyword" => Ok(QueryKind::Keyword),
        "hashtag" => Ok(QueryKind::Hashtag),
        "instance_link" => Ok(QueryKind::InstanceLink),
        other => Err(FlockError::MalformedRecord(format!(
            "unknown query kind {other:?}"
        ))),
    }
}

/// Quote a field iff RFC 4180 requires it: a field containing `"`, `,`,
/// CR or LF is wrapped in quotes with every `"` doubled.
pub fn escape_field(field: &str) -> String {
    if field.contains(['"', ',', '\r', '\n']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Serialize collected tweets to RFC-4180 CSV (header + one row per tweet,
/// `\r\n` row terminators as the RFC specifies).
pub fn tweets_to_csv(tweets: &[CollectedTweet]) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push_str("\r\n");
    for t in tweets {
        out.push_str(&t.id.raw().to_string());
        out.push(',');
        out.push_str(&t.author.raw().to_string());
        out.push(',');
        out.push_str(&t.day.0.to_string());
        out.push(',');
        out.push_str(&escape_field(&t.source));
        out.push(',');
        out.push_str(via_str(t.via));
        out.push(',');
        out.push_str(&escape_field(&t.text));
        out.push_str("\r\n");
    }
    out
}

/// One decoded record: the fields of a row, in order.
type Row = Vec<String>;

/// Strict RFC-4180 tokenizer. Returns rows of fields; rejects a quote
/// appearing mid-field outside quoting and quoted fields that never close.
fn parse_rows(input: &str) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    let mut row: Row = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    // Distinguish "empty field" from "no field yet" only at row ends: a
    // trailing newline ends the file, it does not open an empty row.
    let mut in_quotes = false;
    let mut row_started = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => {
                if field.is_empty() {
                    in_quotes = true;
                    row_started = true;
                } else {
                    return Err(FlockError::MalformedRecord(format!(
                        "bare quote inside unquoted field at row {}",
                        rows.len() + 2
                    )));
                }
            }
            ',' => {
                row.push(std::mem::take(&mut field));
                row_started = true;
            }
            '\r' | '\n' => {
                if c == '\r' && chars.peek() == Some(&'\n') {
                    chars.next();
                }
                if row_started || !field.is_empty() {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                row_started = false;
            }
            _ => {
                field.push(c);
                row_started = true;
            }
        }
    }
    if in_quotes {
        return Err(FlockError::MalformedRecord(
            "unterminated quoted field at end of input".into(),
        ));
    }
    if row_started || !field.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str, line: usize) -> Result<T> {
    s.parse().map_err(|_| {
        FlockError::MalformedRecord(format!("row {line}: {what} is not a number: {s:?}"))
    })
}

/// Parse CSV produced by [`tweets_to_csv`] back into records. Strict: the
/// header must match, every row must have exactly six fields, and numeric /
/// enum fields must decode.
pub fn tweets_from_csv(input: &str) -> Result<Vec<CollectedTweet>> {
    let rows = parse_rows(input)?;
    let mut iter = rows.into_iter();
    let header = iter
        .next()
        .ok_or_else(|| FlockError::MalformedRecord("empty CSV input".into()))?;
    if header.join(",") != HEADER {
        return Err(FlockError::MalformedRecord(format!(
            "unexpected header: {:?}",
            header.join(",")
        )));
    }
    let mut out = Vec::new();
    for (i, row) in iter.enumerate() {
        let line = i + 2; // 1-based, after the header
        if row.len() != 6 {
            return Err(FlockError::MalformedRecord(format!(
                "row {line}: expected 6 fields, found {}",
                row.len()
            )));
        }
        out.push(CollectedTweet {
            id: TweetId(parse_num(&row[0], "id", line)?),
            author: TwitterUserId(parse_num(&row[1], "author", line)?),
            day: Day(parse_num(&row[2], "day", line)?),
            source: row[3].clone(),
            via: via_parse(&row[4])
                .map_err(|e| FlockError::MalformedRecord(format!("row {line}: {e}")))?,
            text: row[5].clone(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_core::DetRng;
    use flock_textsim::{PostGenerator, Topic};

    fn tweet(id: u64, text: &str, source: &str, via: QueryKind) -> CollectedTweet {
        CollectedTweet {
            id: TweetId(id),
            author: TwitterUserId(id * 7),
            day: Day(28),
            text: text.into(),
            source: source.into(),
            via,
        }
    }

    #[test]
    fn plain_rows_round_trip() {
        let tweets = vec![
            tweet(
                1,
                "leaving for mastodon",
                "Twitter Web App",
                QueryKind::Keyword,
            ),
            tweet(2, "#TwitterMigration", "Tweetbot", QueryKind::Hashtag),
        ];
        let csv = tweets_to_csv(&tweets);
        let back = tweets_from_csv(&csv).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].text, tweets[0].text);
        assert_eq!(back[1].via, QueryKind::Hashtag);
        assert_eq!(back[1].day, Day(28));
    }

    #[test]
    fn adversarial_fields_round_trip() {
        // Every RFC-4180 special in one corpus: commas, quotes, both
        // newline conventions, leading/trailing whitespace, empty text.
        let cases = [
            "hello, world",
            "she said \"bye\"",
            "line one\nline two",
            "crlf\r\nrow",
            "\"fully quoted\"",
            ",,,",
            "",
            "  padded  ",
            "mixed, \"all\" of\nthe, above\r\n\"ok\"",
        ];
        let tweets: Vec<CollectedTweet> = cases
            .iter()
            .enumerate()
            .map(|(i, text)| tweet(i as u64, text, "App, \"v2\"", QueryKind::InstanceLink))
            .collect();
        let csv = tweets_to_csv(&tweets);
        let back = tweets_from_csv(&csv).unwrap();
        assert_eq!(back.len(), tweets.len());
        for (a, b) in tweets.iter().zip(&back) {
            assert_eq!(a.text, b.text);
            assert_eq!(a.source, b.source);
            assert_eq!(a.id, b.id);
        }
    }

    #[test]
    fn simulated_post_text_round_trips() {
        // Generated migration-era post text, spiked with the characters the
        // generator itself may or may not emit — the writer must not care.
        let mut rng = DetRng::new(1);
        let gen = PostGenerator::default();
        let tweets: Vec<CollectedTweet> = (0..50)
            .map(|i| {
                let mut text = gen.generate(Topic::Fediverse, &mut rng);
                if i % 3 == 0 {
                    text.push_str(", \"so long\"\nsee you @there@example.social");
                }
                tweet(i, &text, "Twitter for iPhone", QueryKind::Keyword)
            })
            .collect();
        let back = tweets_from_csv(&tweets_to_csv(&tweets)).unwrap();
        assert_eq!(back.len(), tweets.len());
        for (a, b) in tweets.iter().zip(&back) {
            assert_eq!(a.text, b.text);
        }
    }

    #[test]
    fn strict_parser_rejects_malformed_input() {
        let reject = |input: &str, why: &str| {
            let got = tweets_from_csv(input);
            assert!(
                matches!(got, Err(FlockError::MalformedRecord(_))),
                "{why}: expected MalformedRecord, got {got:?}"
            );
        };
        reject("", "empty input");
        reject("id,author\r\n", "wrong header");
        reject(&format!("{HEADER}\r\n1,2,28,app\r\n"), "ragged row (short)");
        reject(
            &format!("{HEADER}\r\n1,2,28,app,keyword,x,extra\r\n"),
            "ragged row (long)",
        );
        reject(
            &format!("{HEADER}\r\n1,2,28,app,keyword,\"open\r\n"),
            "unterminated quote",
        );
        reject(
            &format!("{HEADER}\r\n1,2,28,ap\"p,keyword,x\r\n"),
            "bare quote in unquoted field",
        );
        reject(
            &format!("{HEADER}\r\n1,2,28,app,telepathy,x\r\n"),
            "unknown query kind",
        );
        reject(
            &format!("{HEADER}\r\nnope,2,28,app,keyword,x\r\n"),
            "non-numeric id",
        );
    }

    #[test]
    fn header_only_is_empty_not_error() {
        assert!(tweets_from_csv(&format!("{HEADER}\r\n"))
            .unwrap()
            .is_empty());
        // Trailing newline variants and a lone LF terminator also parse.
        assert!(tweets_from_csv(HEADER).unwrap().is_empty());
        assert!(tweets_from_csv(&format!("{HEADER}\n")).unwrap().is_empty());
    }

    #[test]
    fn negative_days_and_lf_rows_parse() {
        let csv = format!("{HEADER}\n5,35,-120,app,hashtag,hello\n");
        let back = tweets_from_csv(&csv).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].day, Day(-120));
        assert_eq!(back[0].author, TwitterUserId(35));
    }
}
