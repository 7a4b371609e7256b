//! Opaque pagination cursors.
//!
//! Both real APIs page results behind opaque continuation tokens. Ours
//! encode `(query fingerprint, offset)` with a checksum so that a cursor
//! from one query cannot be replayed against another — the kind of bug a
//! crawler must surface, not silently mis-page over.

use flock_core::rng::fnv1a as fingerprint;
use flock_core::{FlockError, Result};

/// Encode a cursor for `scope` at `offset`.
pub fn encode(scope: &str, offset: usize) -> String {
    format!("c{:016x}o{offset}", fingerprint(scope))
}

/// Decode a cursor, verifying it belongs to `scope`. `None` (no cursor)
/// decodes to offset 0.
pub fn decode(scope: &str, cursor: Option<&str>) -> Result<usize> {
    let Some(cursor) = cursor else {
        return Ok(0);
    };
    let rest = cursor
        .strip_prefix('c')
        .ok_or_else(|| FlockError::BadCursor(cursor.to_string()))?;
    let (hash_hex, offset_part) = rest
        .split_once('o')
        .ok_or_else(|| FlockError::BadCursor(cursor.to_string()))?;
    let hash =
        u64::from_str_radix(hash_hex, 16).map_err(|_| FlockError::BadCursor(cursor.to_string()))?;
    if hash != fingerprint(scope) {
        return Err(FlockError::BadCursor(format!(
            "cursor does not belong to this request: {cursor}"
        )));
    }
    offset_part
        .parse::<usize>()
        .map_err(|_| FlockError::BadCursor(cursor.to_string()))
}

/// A page of results plus the continuation cursor (if more remain).
#[derive(Debug, Clone, PartialEq)]
pub struct Page<T> {
    pub items: Vec<T>,
    pub next: Option<String>,
}

impl<T: Clone> Page<T> {
    /// Slice `all[offset..offset+limit]` into a page with a continuation
    /// cursor scoped to `scope`.
    ///
    /// **Stale-cursor contract:** continuation cursors are only ever
    /// issued with `0 < offset < len`, so a decoded `offset > 0` that
    /// lands at or past the end means the dataset shrank after the cursor
    /// was minted. That used to silently yield an empty page — a crawler
    /// would record "no more items" where it had actually lost coverage —
    /// and is now a typed [`FlockError::StaleCursor`] error. A missing
    /// cursor (`offset == 0`) over an empty dataset is still a valid
    /// empty page.
    pub fn slice(all: &[T], scope: &str, offset: usize, limit: usize) -> Result<Page<T>> {
        if offset > 0 && offset >= all.len() {
            return Err(FlockError::StaleCursor(format!(
                "offset {offset} beyond the {} items now in {scope}",
                all.len()
            )));
        }
        let end = (offset + limit).min(all.len());
        let items = all[offset..end].to_vec();
        let next = (end < all.len()).then(|| encode(scope, end));
        Ok(Page { items, next })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let c = encode("search:mastodon", 250);
        assert_eq!(decode("search:mastodon", Some(&c)).unwrap(), 250);
    }

    #[test]
    fn no_cursor_is_offset_zero() {
        assert_eq!(decode("x", None).unwrap(), 0);
    }

    #[test]
    fn wrong_scope_rejected() {
        let c = encode("search:a", 10);
        assert!(matches!(
            decode("search:b", Some(&c)),
            Err(FlockError::BadCursor(_))
        ));
    }

    #[test]
    fn malformed_cursors_rejected() {
        for bad in ["", "garbage", "c123", "cZZo5", "c0o", "c0oNaN"] {
            assert!(decode("s", Some(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn paging_covers_everything_without_duplicates() {
        let data: Vec<u32> = (0..95).collect();
        let mut collected = Vec::new();
        let mut cursor: Option<String> = None;
        let mut pages = 0;
        loop {
            let offset = decode("scope", cursor.as_deref()).unwrap();
            let page = Page::slice(&data, "scope", offset, 10).unwrap();
            collected.extend(page.items);
            pages += 1;
            match page.next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(pages, 10);
        assert_eq!(collected, data);
    }

    #[test]
    fn cursor_past_end_is_a_stale_cursor_error() {
        let data: Vec<u32> = (0..5).collect();
        assert!(matches!(
            Page::slice(&data, "s", 100, 10),
            Err(FlockError::StaleCursor(_))
        ));
    }

    #[test]
    fn cursor_into_shrunk_dataset_is_stale() {
        // Page through 10 items, keep the continuation cursor, then shrink
        // the dataset below the cursor's offset — the §3 "account deleted
        // mid-crawl" shape.
        let data: Vec<u32> = (0..10).collect();
        let page = Page::slice(&data, "s", 0, 6).unwrap();
        let cursor = page.next.expect("more remains");
        let offset = decode("s", Some(&cursor)).unwrap();
        let shrunk: Vec<u32> = (0..3).collect();
        assert!(matches!(
            Page::slice(&shrunk, "s", offset, 6),
            Err(FlockError::StaleCursor(_))
        ));
    }

    #[test]
    fn first_page_of_empty_dataset_is_a_valid_empty_page() {
        let data: Vec<u32> = Vec::new();
        let page = Page::slice(&data, "s", 0, 10).unwrap();
        assert!(page.items.is_empty());
        assert!(page.next.is_none());
    }

    #[test]
    fn exact_boundary_has_no_next() {
        let data: Vec<u32> = (0..20).collect();
        let page = Page::slice(&data, "s", 10, 10).unwrap();
        assert_eq!(page.items.len(), 10);
        assert!(page.next.is_none());
    }
}
