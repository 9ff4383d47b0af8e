//! The star-catalog application: browse, search with SIMBAD fall-through,
//! the AJAX suggest endpoint, star detail pages, and observation upload.
//!
//! §4.2: "the process of searching for a star uses AJAX to suggest stars
//! with results or in the Kepler catalog. If no stars are in AMP's
//! catalog, the search is passed to the SIMBAD astronomical database and
//! the target, if found, is added to the local catalog." The site remains
//! "fully functional without these JavaScript enhancements" — /stars/search
//! is the non-AJAX path over the same data.

use amp_core::models::{Observation, Simulation, Star};
use amp_simdb::orm::Manager;
use amp_simdb::{Op, Query};
use amp_stellar::{Constraint, ObservedMode, ObservedStar};

use crate::http::{html_escape, urlencode, urlencode_path, Request, Response};
use crate::portal::Portal;
use crate::router::Params;

fn stars(p: &Portal) -> Manager<Star> {
    Manager::new(p.conn().clone())
}

const PAGE_SIZE: usize = 25;

pub fn browse(p: &Portal, req: &Request, _: &Params) -> Response {
    let page: usize = req.q("page").and_then(|s| s.parse().ok()).unwrap_or(1);
    let mgr = stars(p);
    let total = mgr.count(&Query::new()).unwrap_or(0);
    // `identifier` is unique + NOT NULL, so this pagination is an
    // index-ordered scan: the engine streams the ordered index and stops
    // after offset + PAGE_SIZE rows instead of sorting the whole catalog.
    let rows = mgr
        .filter(
            &Query::new()
                .order_by("identifier")
                .offset(page.saturating_sub(1).saturating_mul(PAGE_SIZE))
                .limit(PAGE_SIZE),
        )
        .unwrap_or_default();
    let mut list = String::from("<ul>");
    for s in &rows {
        list.push_str(&format!(
            "<li><a href=\"/star/{}\">{}</a>{}{}</li>",
            urlencode_path(&s.identifier),
            html_escape(&s.identifier),
            s.name
                .as_deref()
                .map(|n| format!(" ({})", html_escape(n)))
                .unwrap_or_default(),
            if s.has_results { " ★ results" } else { "" },
        ));
    }
    list.push_str("</ul>");
    let body = format!(
        "<h2>Star catalog ({total} stars)</h2>\
         <form action=\"/stars/search\"><input name=\"q\" placeholder=\"HD 52265\">\
         <button>Search</button></form>{list}\
         <p>page {page} — <a href=\"/stars?page={next}\">next</a></p>",
        next = page.saturating_add(1),
    );
    p.page("Stars", p.current_user(req).as_ref(), &body)
}

/// Local catalog lookup by identifier-ish query: the identifiers of the
/// hits, read as one column (the page prints nothing else of a star).
fn local_search(p: &Portal, q: &str) -> Vec<String> {
    let mgr = stars(p);
    let identifiers = |query: Query| -> Vec<String> {
        mgr.project(&query, "identifier")
            .unwrap_or_default()
            .into_iter()
            .filter_map(|(_, v)| v.as_text().map(str::to_string))
            .collect()
    };
    // exact identifier first
    let exact = identifiers(Query::new().eq("identifier", q).limit(1));
    if !exact.is_empty() {
        return exact;
    }
    let out = identifiers(
        Query::new()
            .filter("identifier", Op::IContains, q)
            .limit(PAGE_SIZE),
    );
    if !out.is_empty() {
        return out;
    }
    identifiers(
        Query::new()
            .filter("name", Op::IContains, q)
            .limit(PAGE_SIZE),
    )
}

/// Import an external catalog entry into the local catalog; the
/// identifier it is listed under.
fn import_from_simbad(p: &Portal, q: &str) -> Option<String> {
    let entry = p.simbad.resolve(q).ok()?;
    let mgr = stars(p);
    let identifier = entry.identifier();
    // Someone may have imported it since the local miss.
    let query = Query::new().eq("identifier", identifier.as_str());
    if !mgr.exists(&query).unwrap_or(false) {
        mgr.create(&mut Star::from_catalog(&entry, "simbad")).ok()?;
    }
    Some(identifier)
}

pub fn search(p: &Portal, req: &Request, _: &Params) -> Response {
    let q = req.q("q").unwrap_or("").trim().to_string();
    if q.is_empty() {
        return Response::redirect("/stars");
    }
    let mut hits = local_search(p, &q);
    let mut imported = false;
    if hits.is_empty() {
        if let Some(identifier) = import_from_simbad(p, &q) {
            hits.push(identifier);
            imported = true;
        }
    }
    let mut body = format!("<h2>Search results for “{}”</h2>", html_escape(&q));
    if imported {
        body.push_str("<p><em>Target found in SIMBAD and added to the AMP catalog.</em></p>");
    }
    if hits.is_empty() {
        body.push_str("<p>No matching targets, locally or in SIMBAD.</p>");
    } else {
        body.push_str("<ul>");
        for identifier in &hits {
            body.push_str(&format!(
                "<li><a href=\"/star/{}\">{}</a></li>",
                urlencode_path(identifier),
                html_escape(identifier)
            ));
        }
        body.push_str("</ul>");
    }
    p.page("Search", p.current_user(req).as_ref(), &body)
}

/// AJAX suggest endpoint — JSON, ranked so stars with results or in the
/// Kepler catalog come first (§4.2). It reads the `star` table alone, so an
/// anonymous answer is kept in the response cache ([`crate::cache`]) until
/// the next write to `star`: each keystroke's repeat of a fragment is a hit.
pub fn suggest(p: &Portal, req: &Request, _: &Params) -> Response {
    let q = req.q("q").unwrap_or("").trim().to_string();
    if q.chars().count() < 2 {
        return Response::json(&serde_json::json!([]));
    }
    let mgr = stars(p);
    let mut hits = mgr
        .filter(
            &Query::new()
                .filter("identifier", Op::IContains, q.as_str())
                .limit(50),
        )
        .unwrap_or_default();
    let seen: std::collections::HashSet<Option<i64>> = hits.iter().map(|h| h.id).collect();
    let by_name = mgr
        .filter(
            &Query::new()
                .filter("name", Op::IContains, q.as_str())
                .limit(50),
        )
        .unwrap_or_default();
    hits.extend(by_name.into_iter().filter(|n| !seen.contains(&n.id)));
    // interesting first, then by identifier
    let rank = |s: &Star| !(s.has_results || s.in_kepler_field);
    hits.sort_by(|a, b| (rank(a), &a.identifier).cmp(&(rank(b), &b.identifier)));
    hits.truncate(10);
    let items: Vec<serde_json::Value> = hits
        .iter()
        .map(|s| {
            serde_json::json!({
                "identifier": s.identifier,
                "name": s.name,
                "has_results": s.has_results,
                "in_kepler_field": s.in_kepler_field,
            })
        })
        .collect();
    Response::json(&serde_json::Value::Array(items))
}

fn find_star(p: &Portal, ident: &str) -> Option<Star> {
    let mgr = stars(p);
    if let Ok(id) = ident.parse::<i64>() {
        if let Ok(star) = mgr.get(id) {
            return Some(star);
        }
    }
    mgr.first(&Query::new().eq("identifier", ident)).ok()?
}

pub fn star_detail(p: &Portal, req: &Request, params: &Params) -> Response {
    let ident = params.get("ident").unwrap_or("");
    let Some(star) = find_star(p, ident) else {
        return Response::not_found();
    };
    let star_id = star.id.expect("saved");
    let observations = Manager::<Observation>::new(p.conn().clone())
        .filter(&Query::new().eq("star_id", star_id))
        .unwrap_or_default();
    let sims = Manager::<Simulation>::new(p.conn().clone())
        .filter(&Query::new().eq("star_id", star_id).order_by_desc("id"))
        .unwrap_or_default();
    let mut body = format!(
        "<h2>{}</h2><table>\
         <tr><td>Name</td><td>{}</td></tr>\
         <tr><td>RA / Dec</td><td>{:.3} / {:.3}</td></tr>\
         <tr><td>V magnitude</td><td>{:.2}</td></tr>\
         <tr><td>Kepler field</td><td>{}</td></tr>\
         <tr><td>Source</td><td>{}</td></tr></table>",
        html_escape(&star.identifier),
        html_escape(star.name.as_deref().unwrap_or("—")),
        star.ra,
        star.dec,
        star.vmag,
        if star.in_kepler_field { "yes" } else { "no" },
        html_escape(&star.source),
    );
    body.push_str(&format!("<h3>Observations ({})</h3>", observations.len()));
    body.push_str(&format!(
        "<form method=\"post\" action=\"/star/{}/observations\">\
         <p>Upload pulsation frequencies (one per line: <code>l n frequency sigma</code>, µHz):</p>\
         <textarea name=\"modes\"></textarea><br>\
         <label>T<sub>eff</sub> <input name=\"teff\"> ± <input name=\"teff_sigma\"></label><br>\
         <label>L/L<sub>☉</sub> <input name=\"lum\"> ± <input name=\"lum_sigma\"></label><br>\
         <button>Upload observation set</button></form>",
        urlencode_path(&star.identifier)
    ));
    body.push_str("<h3>Simulations</h3><ul>");
    for s in &sims {
        body.push_str(&format!(
            "<li><a href=\"/simulation/{}\">#{} {} — {}</a> ({:.0}%)</li>",
            s.id.unwrap(),
            s.id.unwrap(),
            s.kind.as_str(),
            s.status,
            s.progress * 100.0,
        ));
    }
    body.push_str("</ul>");
    body.push_str(&format!(
        "<p><a href=\"/submit/stellar/direct/{id}\">Submit direct model run</a> | \
         <a href=\"/submit/stellar/optimization/{id}\">Submit optimization run</a> | \
         <a href=\"/feeds/star/{id}.rss\">RSS feed</a></p>",
        id = star_id
    ));
    // Multi-application portal: one submit pair per installed science app.
    let app_links: Vec<String> = amp_core::app::builtin()
        .iter()
        .map(|a| {
            format!(
                "{} (<a href=\"/submit/{app}/direct/{id}\">direct</a> | \
                 <a href=\"/submit/{app}/optimization/{id}\">optimization</a>)",
                crate::http::html_escape(a.title()),
                app = a.id(),
                id = star_id
            )
        })
        .collect();
    body.push_str(&format!(
        "<p>Other applications: {} — <a href=\"/apps\">browse all</a></p>",
        app_links.join(" | ")
    ));
    // §5: "dynamic links to astronomical catalogs and visualization
    // services such as SIMBAD and Google Sky"
    body.push_str(&format!(
        "<p>External services: \
         <a href=\"https://simbad.u-strasbg.fr/simbad/sim-id?Ident={q}\">SIMBAD</a> | \
         <a href=\"https://www.google.com/sky/#ra={ra}&dec={dec}\">Google Sky</a></p>",
        q = urlencode(&star.identifier),
        ra = star.ra,
        dec = star.dec,
    ));
    p.page(
        &star.identifier.clone(),
        p.current_user(req).as_ref(),
        &body,
    )
}

/// Parse the observation-upload form into a typed observation set. This
/// is the web half of the §3 marshaling story: free text enters here and
/// only validated typed rows reach the database.
pub fn upload_observation(p: &Portal, req: &Request, params: &Params) -> Response {
    let Some(user) = p.current_user(req) else {
        return Response::redirect("/accounts/login");
    };
    if !user.approved {
        return Response::forbidden("account not approved");
    }
    let ident = params.get("ident").unwrap_or("");
    let Some(star) = find_star(p, ident) else {
        return Response::not_found();
    };
    let form = req.form();
    let modes_text = form.get("modes").map(|s| s.as_str()).unwrap_or("");
    let mut modes = Vec::new();
    for (lineno, line) in modes_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let parsed = (|| -> Option<ObservedMode> {
            if parts.len() != 4 {
                return None;
            }
            let l: u8 = parts[0].parse().ok()?;
            let n: u32 = parts[1].parse().ok()?;
            let frequency: f64 = parts[2].parse().ok()?;
            let sigma: f64 = parts[3].parse().ok()?;
            if l > 3 || !frequency.is_finite() || !sigma.is_finite() || sigma <= 0.0 {
                return None;
            }
            Some(ObservedMode {
                l,
                n,
                frequency,
                sigma,
            })
        })();
        match parsed {
            Some(m) => modes.push(m),
            None => {
                return Response::bad_request(&format!(
                    "line {}: expected 'l n frequency sigma'",
                    lineno + 1
                ))
            }
        }
    }
    if modes.len() < 3 {
        return Response::bad_request("at least 3 modes required");
    }
    let constraint = |v: Option<&String>, s: Option<&String>| -> Result<Option<Constraint>, ()> {
        match (
            v.map(|x| x.trim()).filter(|x| !x.is_empty()),
            s.map(|x| x.trim()).filter(|x| !x.is_empty()),
        ) {
            (None, _) => Ok(None),
            (Some(v), Some(s)) => {
                let value: f64 = v.parse().map_err(|_| ())?;
                let sigma: f64 = s.parse().map_err(|_| ())?;
                if !value.is_finite() || !sigma.is_finite() || sigma <= 0.0 {
                    return Err(());
                }
                Ok(Some(Constraint { value, sigma }))
            }
            (Some(_), None) => Err(()),
        }
    };
    let Ok(teff) = constraint(form.get("teff"), form.get("teff_sigma")) else {
        return Response::bad_request("invalid Teff constraint");
    };
    let Ok(lum) = constraint(form.get("lum"), form.get("lum_sigma")) else {
        return Response::bad_request("invalid luminosity constraint");
    };
    let observed = ObservedStar {
        identifier: star.identifier.clone(),
        modes,
        teff,
        luminosity: lum,
    };
    let mut rec = Observation::new(
        star.id.expect("saved"),
        user.id.expect("saved"),
        &observed,
        p.now(),
    );
    match Manager::<Observation>::new(p.conn().clone()).create(&mut rec) {
        Ok(_) => Response::redirect(&format!("/star/{}", urlencode_path(&star.identifier))),
        Err(e) => Response::server_error(&e.to_string()),
    }
}
