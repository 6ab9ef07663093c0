//! Correctness checks on the program's outputs.
//!
//! Each check tests a property the paper's method must have, not a
//! saved copy of today's output: the same world gives the same bytes
//! whichever engine path produced them, a detected compromise is a real
//! one, a staleness window lies inside the certificate's validity, a
//! daemon applies exactly the day it was fed. Every check returns
//! `Err` with a message naming the first violation.

use obs::audit::CoverageSummary;
use stale_core::staleness::{StaleCertRecord, StalenessClass};
use stale_types::{CertId, Date, DateInterval, DomainName, Duration, SerialNumber};
use std::collections::{BTreeMap, BTreeSet};

/// `actual` must equal `expected` byte for byte.
pub fn same_text(what: &str, expected: &str, actual: &str) -> Result<(), String> {
    if expected == actual {
        return Ok(());
    }
    let at = expected
        .bytes()
        .zip(actual.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(actual.len()));
    let context = |s: &str| -> String {
        let from = s.floor_char_boundary(at.saturating_sub(20));
        let to = s.ceil_char_boundary((at + 20).min(s.len()));
        s[from..to].escape_debug().to_string()
    };
    Err(format!(
        "{what}: differs at byte {at} ({} vs {} bytes): expected \"{}\", got \"{}\"",
        expected.len(),
        actual.len(),
        context(expected),
        context(actual)
    ))
}

/// Two renderings of the same experiments (name, body) are identical.
pub fn same_renders(
    what: &str,
    expected: &[(&str, String)],
    actual: &[(&str, String)],
) -> Result<(), String> {
    if expected.len() != actual.len() {
        return Err(format!(
            "{what}: {} experiments rendered, expected {}",
            actual.len(),
            expected.len()
        ));
    }
    for ((name, a), (other, b)) in expected.iter().zip(actual) {
        if name != other {
            return Err(format!(
                "{what}: experiment {other} where {name} was expected"
            ));
        }
        same_text(&format!("{what}: {name}"), a, b)?;
    }
    Ok(())
}

/// Two engine paths found the same records of every class, in order.
pub fn same_records(
    what: &str,
    expected: &[&[StaleCertRecord]; 3],
    actual: &[&[StaleCertRecord]; 3],
) -> Result<(), String> {
    for (class, (a, b)) in expected.iter().zip(actual).enumerate() {
        if a.len() != b.len() {
            return Err(format!(
                "{what}: class {class} has {} records, expected {}",
                b.len(),
                a.len()
            ));
        }
        if let Some(i) = a.iter().zip(b.iter()).position(|(x, y)| x != y) {
            return Err(format!(
                "{what}: class {class} record {i} differs ({} vs {})",
                a[i].cert_id, b[i].cert_id
            ));
        }
    }
    Ok(())
}

/// Every key-compromise record names a certificate whose serial the
/// simulator recorded as compromised or revoked in the breach. `serial`
/// looks a certificate up in the CT corpus.
pub fn kc_serials_are_compromises(
    records: &[StaleCertRecord],
    serial: impl Fn(&CertId) -> Option<SerialNumber>,
    truth: &BTreeSet<SerialNumber>,
) -> Result<(), String> {
    for r in records {
        if r.class != StalenessClass::KeyCompromise {
            return Err(format!(
                "{}: {:?} record in the KC list",
                r.cert_id, r.class
            ));
        }
        let s = serial(&r.cert_id)
            .ok_or_else(|| format!("KC record {} is not in the CT corpus", r.cert_id))?;
        if !truth.contains(&s) {
            return Err(format!(
                "KC record {} has serial {s}, which no compromise or breach revoked",
                r.cert_id
            ));
        }
    }
    Ok(())
}

/// Every registrant-change record matches a recorded re-registration of
/// its domain on its invalidation day.
pub fn rc_records_match_changes(
    records: &[StaleCertRecord],
    truth: &BTreeSet<(DomainName, Date)>,
) -> Result<(), String> {
    for r in records {
        if r.class != StalenessClass::RegistrantChange {
            return Err(format!(
                "{}: {:?} record in the RC list",
                r.cert_id, r.class
            ));
        }
        if !truth.contains(&(r.domain.clone(), r.invalidation)) {
            return Err(format!(
                "RC record {} ({} on {}) matches no recorded registrant change",
                r.cert_id, r.domain, r.invalidation
            ));
        }
    }
    Ok(())
}

/// Every record's staleness window `[max(invalidation, notBefore),
/// notAfter)` is non-empty, and the validity it carries is the
/// certificate's own (`validity` looks the certificate up).
pub fn windows_inside_validity(
    records: &[StaleCertRecord],
    validity: impl Fn(&CertId) -> Option<DateInterval>,
) -> Result<(), String> {
    for r in records {
        let own = validity(&r.cert_id)
            .ok_or_else(|| format!("record {} is not in the CT corpus", r.cert_id))?;
        if own != r.validity {
            return Err(format!(
                "record {} carries validity {}..{}, the certificate says {}..{}",
                r.cert_id, r.validity.start, r.validity.end, own.start, own.end
            ));
        }
        let start = r.invalidation.max(own.start);
        if start >= own.end {
            return Err(format!(
                "record {} ({:?}) is invalidated {}, not before notAfter {}: empty window",
                r.cert_id, r.class, r.invalidation, own.end
            ));
        }
    }
    Ok(())
}

/// How many managed-TLS departure records have no recorded departure of
/// their domain in the week up to their invalidation day. Reported, not
/// gated: the detector infers departures from DNS, and the simulator
/// records only the departures it scripted.
pub fn mtd_without_departure(
    records: &[StaleCertRecord],
    departures: &BTreeSet<(DomainName, Date)>,
) -> usize {
    records
        .iter()
        .filter(|r| {
            let from = r.invalidation - Duration::days(7);
            departures
                .range((r.domain.clone(), from)..=(r.domain.clone(), r.invalidation))
                .next()
                .is_none()
        })
        .count()
}

/// A `feed-day` reply applied exactly `day`: the daemon fed and applied
/// through the day after the previous one, not past it and not short.
pub fn feed_applied(reply: &str, day: Date) -> Result<(), String> {
    let want = format!("fed through {day}; applied through {day};");
    if reply.starts_with(&want) {
        Ok(())
    } else {
        Err(format!(
            "feed-day for {day} replied {:?}",
            first_line(reply)
        ))
    }
}

/// A per-certificate answer names the fingerprint that was asked for.
pub fn names_fingerprint(command: &str, reply: &str, fp: &str) -> Result<(), String> {
    let head: String = reply.lines().take(2).collect::<Vec<_>>().join("\n");
    if head.contains(fp) {
        Ok(())
    } else {
        Err(format!(
            "{command} {fp} answered about {:?}",
            first_line(reply)
        ))
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or_default()
}

/// The decision audit balances: for every detector, candidates = kept +
/// the sum of every drop reason.
pub fn coverage_balances(coverage: &BTreeMap<String, CoverageSummary>) -> Result<(), String> {
    if coverage.is_empty() {
        return Err("the decision audit has no coverage rows".to_string());
    }
    for (detector, c) in coverage {
        let dropped: u64 = c.dropped.values().sum();
        if c.candidates != c.kept + dropped {
            return Err(format!(
                "audit coverage of {detector}: {} candidates != {} kept + {dropped} dropped",
                c.candidates, c.kept
            ));
        }
    }
    Ok(())
}

/// The world-log's header event count and trailer tally equal the event
/// lines actually present, kind by kind. Returns the event count.
pub fn tally_matches_events(jsonl: &str) -> Result<usize, String> {
    use serde::value::Value;
    let mut lines = jsonl.lines().filter(|l| !l.trim().is_empty());
    let header: Value = lines
        .next()
        .ok_or("empty world log")
        .and_then(|l| serde_json::from_str(l).map_err(|_| "header does not parse"))?;
    let declared = header
        .get("events")
        .and_then(Value::as_u128)
        .ok_or("header has no event count")?;
    let mut counted: BTreeMap<String, u128> = BTreeMap::new();
    let mut trailer: Option<Value> = None;
    for line in lines {
        if trailer.is_some() {
            return Err("a line follows the trailer".to_string());
        }
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line: {e:?}"))?;
        match v.get("kind") {
            Some(Value::Str(kind)) => *counted.entry(kind.clone()).or_insert(0) += 1,
            Some(_) => return Err("an event kind is not a string".to_string()),
            None => trailer = Some(v),
        }
    }
    let trailer = trailer.ok_or("no trailer line")?;
    let total: u128 = counted.values().sum();
    if declared != total {
        return Err(format!(
            "header declares {declared} events, the log holds {total}"
        ));
    }
    if trailer.get("total").and_then(Value::as_u128) != Some(total) {
        return Err(format!("trailer total differs from the {total} events"));
    }
    let Some(Value::Obj(tally)) = trailer.get("tally") else {
        return Err("trailer has no tally".to_string());
    };
    for (kind, n) in tally {
        let have = counted.get(kind).copied().unwrap_or(0);
        if n.as_u128() != Some(have) {
            return Err(format!(
                "trailer tallies {kind} as {n:?}, the log holds {have}"
            ));
        }
    }
    if let Some(kind) = counted.keys().find(|k| !tally.iter().any(|(t, _)| t == *k)) {
        return Err(format!("event kind {kind} is missing from the tally"));
    }
    usize::try_from(total).map_err(|_| "event count overflows".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn record(n: u8, class: StalenessClass, domain: &str, inv: &str) -> StaleCertRecord {
        StaleCertRecord {
            cert_id: CertId::from_bytes([n; 32]),
            class,
            domain: DomainName::parse(domain).unwrap(),
            fqdns: vec![DomainName::parse(domain).unwrap()],
            issuer: "Test CA".to_string(),
            invalidation: day(inv),
            validity: DateInterval::new(day("2022-01-01"), day("2022-12-31")).unwrap(),
        }
    }

    #[test]
    fn a_dropped_stale_record_is_rejected() {
        let a = vec![
            record(1, StalenessClass::RegistrantChange, "a.com", "2022-03-01"),
            record(2, StalenessClass::RegistrantChange, "b.com", "2022-04-01"),
        ];
        let b = vec![a[0].clone()];
        let full: [&[StaleCertRecord]; 3] = [&[], &a, &[]];
        let dropped: [&[StaleCertRecord]; 3] = [&[], &b, &[]];
        assert!(same_records("batch", &full, &full).is_ok());
        assert!(same_records("batch", &full, &dropped).is_err());
        let mut moved = a.clone();
        moved[1].invalidation = day("2022-04-02");
        let moved: [&[StaleCertRecord]; 3] = [&[], &moved, &[]];
        assert!(same_records("batch", &full, &moved).is_err());
    }

    #[test]
    fn an_invalidation_past_not_after_is_rejected() {
        let validity = |_: &CertId| DateInterval::new(day("2022-01-01"), day("2022-12-31")).ok();
        let mut r = record(1, StalenessClass::KeyCompromise, "a.com", "2022-06-01");
        assert!(windows_inside_validity(std::slice::from_ref(&r), validity).is_ok());
        r.invalidation = day("2022-12-31");
        assert!(windows_inside_validity(std::slice::from_ref(&r), validity).is_err());
        r.invalidation = day("2023-02-01");
        assert!(windows_inside_validity(std::slice::from_ref(&r), validity).is_err());
        let mut other = record(2, StalenessClass::KeyCompromise, "a.com", "2022-06-01");
        other.validity = DateInterval::new(day("2022-01-01"), day("2023-12-31")).unwrap();
        assert!(windows_inside_validity(&[other], validity).is_err());
        assert!(windows_inside_validity(&[r], |_: &CertId| None).is_err());
    }

    #[test]
    fn a_one_byte_table_difference_is_rejected() {
        let table = "Table 4 — daily rates\n| KC | 0.51 |\n".to_string();
        let mut flipped = table.clone().into_bytes();
        let at = table.find("0.51").unwrap() + 3;
        flipped[at] = b'2';
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(same_text("table4", &table, &table).is_ok());
        let err = same_text("table4", &table, &flipped).unwrap_err();
        assert!(err.contains(&format!("byte {at}")), "{err}");
        assert!(same_text("table4", &table, &table[..table.len() - 1]).is_err());
        let a = vec![("table4", table.clone())];
        let b = vec![("table4", flipped)];
        assert!(same_renders("incremental", &a, &b).is_err());
        assert!(same_renders("incremental", &a, &[]).is_err());
    }

    #[test]
    fn a_feed_day_reply_that_skips_a_day_is_rejected() {
        let d = day("2022-11-02");
        let ok = "fed through 2022-11-02; applied through 2022-11-02; 3 new event(s), 9 since boot";
        assert!(feed_applied(ok, d).is_ok());
        let skipped =
            "fed through 2022-11-03; applied through 2022-11-03; 0 new event(s), 9 since boot";
        assert!(feed_applied(skipped, d).is_err());
        let held =
            "fed through 2022-11-02; applied through 2022-11-01; 0 new event(s), 9 since boot";
        assert!(feed_applied(held, d).is_err());
        assert!(feed_applied("already fed through 2022-11-02", d).is_err());
    }

    #[test]
    fn answers_about_another_certificate_are_rejected() {
        assert!(names_fingerprint("status", "fingerprint abcd\ndecisions 2\n", "abcd").is_ok());
        assert!(names_fingerprint("status", "fingerprint ef01\ndecisions 2\n", "abcd").is_err());
    }

    #[test]
    fn a_kc_record_without_a_compromise_is_rejected() {
        let r = record(1, StalenessClass::KeyCompromise, "a.com", "2022-06-01");
        let truth: BTreeSet<SerialNumber> = [SerialNumber(7)].into();
        assert!(kc_serials_are_compromises(
            std::slice::from_ref(&r),
            |_| Some(SerialNumber(7)),
            &truth
        )
        .is_ok());
        assert!(kc_serials_are_compromises(
            std::slice::from_ref(&r),
            |_| Some(SerialNumber(8)),
            &truth
        )
        .is_err());
        let rc = record(2, StalenessClass::RegistrantChange, "a.com", "2022-06-01");
        assert!(kc_serials_are_compromises(&[rc], |_| Some(SerialNumber(7)), &truth).is_err());
    }

    #[test]
    fn an_rc_record_off_its_change_day_is_rejected() {
        let r = record(1, StalenessClass::RegistrantChange, "a.com", "2022-06-01");
        let truth: BTreeSet<(DomainName, Date)> =
            [(DomainName::parse("a.com").unwrap(), day("2022-06-01"))].into();
        assert!(rc_records_match_changes(std::slice::from_ref(&r), &truth).is_ok());
        let mut moved = r.clone();
        moved.invalidation = day("2022-06-02");
        assert!(rc_records_match_changes(&[moved], &truth).is_err());
    }

    #[test]
    fn departures_within_a_week_count_as_matched() {
        let departures: BTreeSet<(DomainName, Date)> =
            [(DomainName::parse("a.com").unwrap(), day("2022-05-28"))].into();
        let near = record(
            1,
            StalenessClass::ManagedTlsDeparture,
            "a.com",
            "2022-06-01",
        );
        let far = record(
            2,
            StalenessClass::ManagedTlsDeparture,
            "a.com",
            "2022-07-01",
        );
        let other = record(
            3,
            StalenessClass::ManagedTlsDeparture,
            "b.com",
            "2022-06-01",
        );
        assert_eq!(mtd_without_departure(&[near, far, other], &departures), 2);
    }

    #[test]
    fn unbalanced_coverage_is_rejected() {
        let mut c = CoverageSummary {
            candidates: 10,
            kept: 4,
            dropped: [("expired".to_string(), 6)].into(),
        };
        let ok: BTreeMap<String, CoverageSummary> = [("kc".to_string(), c.clone())].into();
        assert!(coverage_balances(&ok).is_ok());
        c.kept = 3;
        let bad: BTreeMap<String, CoverageSummary> = [("kc".to_string(), c)].into();
        assert!(coverage_balances(&bad).is_err());
        assert!(coverage_balances(&BTreeMap::new()).is_err());
    }

    #[test]
    fn a_tally_that_miscounts_is_rejected() {
        let log = "{\"events\":2}\n{\"kind\":\"cert-issued\"}\n{\"kind\":\"cert-expired\"}\n\
                   {\"tally\":{\"cert-issued\":1,\"cert-expired\":1},\"total\":2}\n";
        assert_eq!(tally_matches_events(log), Ok(2));
        let header = log.replacen("\"events\":2", "\"events\":3", 1);
        assert!(tally_matches_events(&header).is_err());
        let kind = log.replacen("\"cert-issued\":1", "\"cert-issued\":2", 1);
        assert!(tally_matches_events(&kind).is_err());
        let dropped = log.replacen("{\"kind\":\"cert-expired\"}\n", "", 1);
        assert!(tally_matches_events(&dropped).is_err());
        assert!(tally_matches_events("").is_err());
    }
}
