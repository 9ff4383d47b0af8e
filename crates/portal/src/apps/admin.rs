//! The administrative interface.
//!
//! §4.1: Django's admin "can manipulate ORM objects ... administrative
//! tasks such as approving users or adjusting back-end parameters (like
//! allocations and the authorization for a user to submit to a machine
//! using a particular allocation) can easily be manipulated from a
//! graphical interface without custom development. ... the administrative
//! functionality is not even possible from any publicly accessible web
//! servers." Routes in this module only exist on admin-enabled deploys
//! (see [`crate::apps::build_router`]) and additionally require a
//! logged-in administrator.

use amp_core::models::{AmpUser, Simulation, SystemAuthorization};
use amp_core::status::SimStatus;
use amp_simdb::admin as dbadmin;
use amp_simdb::orm::{Manager, Model};
use amp_simdb::{Connection, DbError, Query, Value};

use crate::http::{html_escape, Request, Response};
use crate::portal::Portal;
use crate::router::Params;

/// Gate: deploy must be admin-enabled AND the user must be an admin.
fn require_admin<'p>(p: &'p Portal, req: &Request) -> Result<&'p Connection, Response> {
    let Some(conn) = p.admin_conn() else {
        // Defence in depth: routes shouldn't exist, but never trust that.
        return Err(Response::not_found());
    };
    match p.current_user(req) {
        Some(u) if u.is_admin => Ok(conn),
        Some(_) => Err(Response::forbidden("administrators only")),
        None => Err(Response::redirect("/accounts/login")),
    }
}

pub fn dashboard(p: &Portal, req: &Request, _: &Params) -> Response {
    let conn = match require_admin(p, req) {
        Ok(c) => c,
        Err(r) => return r,
    };
    let mut body = String::from("<h2>Administration</h2><h3>Tables</h3><ul>");
    for name in dbadmin::table_names(conn) {
        let len = dbadmin::table_len(conn, &name).unwrap_or(0);
        body.push_str(&format!(
            "<li><a href=\"/admin/table/{name}\">{name}</a> ({len} rows)</li>"
        ));
    }
    body.push_str("</ul><h3>Pending users</h3><ul>");
    let users = Manager::<AmpUser>::new(conn.clone())
        .filter(&Query::new().eq("approved", false))
        .unwrap_or_default();
    for u in &users {
        body.push_str(&format!(
            "<li>{} &lt;{}&gt; — <form method=\"post\" action=\"/admin/users/{}/approve\" style=\"display:inline\"><button>approve</button></form> <small>{}</small></li>",
            html_escape(&u.username),
            html_escape(&u.email),
            u.id.unwrap(),
            html_escape(&u.provenance),
        ));
    }
    body.push_str("</ul><h3>Held simulations</h3><ul>");
    let held = Manager::<Simulation>::new(conn.clone())
        .filter(&Query::new().eq("status", SimStatus::Hold.as_str()))
        .unwrap_or_default();
    for s in &held {
        body.push_str(&format!(
            "<li>#{} ({}) — <form method=\"post\" action=\"/admin/simulations/{}/resume\" style=\"display:inline\"><button>resume</button></form></li>",
            s.id.unwrap(),
            html_escape(&s.status_message),
            s.id.unwrap(),
        ));
    }
    body.push_str("</ul>");
    p.page("Admin", p.current_user(req).as_ref(), &body)
}

pub fn table_list(p: &Portal, req: &Request, params: &Params) -> Response {
    let conn = match require_admin(p, req) {
        Ok(c) => c,
        Err(r) => return r,
    };
    let Some(name) = params.get("name") else {
        return Response::not_found();
    };
    let Ok(schema) = dbadmin::table_schema(conn, name) else {
        return Response::not_found();
    };
    let page: usize = req.q("page").and_then(|s| s.parse().ok()).unwrap_or(1);
    let offset = page.saturating_sub(1).saturating_mul(50);
    let rows = dbadmin::browse(conn, name, offset, 50).unwrap_or_default();
    let mut body = format!("<h2>Table {name}</h2><table><tr><th>id</th>");
    for c in &schema.columns {
        body.push_str(&format!("<th>{}</th>", html_escape(&c.name)));
    }
    body.push_str("</tr>");
    for (id, row) in &rows {
        body.push_str(&format!("<tr><td>{id}</td>"));
        for v in row {
            body.push_str(&format!("<td>{}</td>", html_escape(&v.to_string())));
        }
        body.push_str("</tr>");
    }
    body.push_str("</table>");
    p.page(
        &format!("Admin: {name}"),
        p.current_user(req).as_ref(),
        &body,
    )
}

/// Generic single-field edit (the change form). A simulation's row is
/// edited only while it is HOLD or DONE: a live one is written only under
/// its lease, by the daemon holding it, which saves the whole row it loaded
/// and would undo the edit.
pub fn set_field(p: &Portal, req: &Request, params: &Params) -> Response {
    let conn = match require_admin(p, req) {
        Ok(c) => c,
        Err(r) => return r,
    };
    let (Some(name), Some(id)) = (params.get("name"), params.id("id")) else {
        return Response::not_found();
    };
    let form = req.form();
    let (Some(column), Some(value)) = (form.get("column"), form.get("value")) else {
        return Response::bad_request("need column and value");
    };
    let settled = |row: &[Value]| {
        if name != Simulation::TABLE {
            return Ok(());
        }
        match Simulation::from_row(id, row)?.status {
            SimStatus::Hold | SimStatus::Done => Ok(()),
            live => Err(DbError::TxnAborted(format!(
                "simulation {id} is {live}: only a HOLD or DONE simulation is edited here"
            ))),
        }
    };
    match dbadmin::set_field(conn, name, id, column, value, settled) {
        Ok(()) => Response::redirect(&format!("/admin/table/{name}")),
        Err(e) => Response::bad_request(&e.to_string()),
    }
}

pub fn approve_user(p: &Portal, req: &Request, params: &Params) -> Response {
    let conn = match require_admin(p, req) {
        Ok(c) => c,
        Err(r) => return r,
    };
    let Some(id) = params.id("id") else {
        return Response::not_found();
    };
    let mgr = Manager::<AmpUser>::new(conn.clone());
    match mgr.get(id) {
        Ok(mut u) => {
            u.approved = true;
            match mgr.save(&u) {
                Ok(()) => Response::redirect("/admin"),
                Err(e) => Response::server_error(&e.to_string()),
            }
        }
        Err(_) => Response::not_found(),
    }
}

/// Grant a user permission to submit to a machine via an allocation.
pub fn authorize(p: &Portal, req: &Request, _: &Params) -> Response {
    let conn = match require_admin(p, req) {
        Ok(c) => c,
        Err(r) => return r,
    };
    let form = req.form();
    let (Some(user_id), Some(alloc_id)) = (
        form.get("user_id").and_then(|s| s.parse::<i64>().ok()),
        form.get("allocation_id")
            .and_then(|s| s.parse::<i64>().ok()),
    ) else {
        return Response::bad_request("need user_id and allocation_id");
    };
    let mgr = Manager::<SystemAuthorization>::new(conn.clone());
    let mut auth = SystemAuthorization::new(user_id, alloc_id, p.now());
    match mgr.create(&mut auth) {
        Ok(_) => Response::redirect("/admin"),
        Err(e) => Response::bad_request(&e.to_string()),
    }
}

/// Ask for a held simulation to resume from its pre-failure state (§4.4:
/// "once the problem has been resolved, the workflow resumes
/// automatically"). The portal holds no grid credential, so it only asks,
/// on the row: the status goes back and `held_from` stays set (`QUEUED`,
/// if the hold had none). The daemon that next claims the simulation finds
/// `held_from` on a live row, makes the site forget the submissions whose
/// job rows were deleted while it was held, and clears it.
pub fn resume_hold(p: &Portal, req: &Request, params: &Params) -> Response {
    let conn = match require_admin(p, req) {
        Ok(c) => c,
        Err(r) => return r,
    };
    let Some(id) = params.id("id") else {
        return Response::not_found();
    };
    let mgr = Manager::<Simulation>::new(conn.clone());
    match mgr.get(id) {
        Ok(mut sim) if sim.status == SimStatus::Hold => {
            // A hold with no `held_from` (an edit of a DONE row) reruns from
            // the start, and asks the daemon for its releases all the same.
            let from = sim.held_from.get_or_insert_with(|| "QUEUED".into());
            sim.status = from.parse().unwrap_or(SimStatus::Queued);
            sim.status_message = "resumed by administrator".into();
            match mgr.save(&sim) {
                Ok(()) => Response::redirect("/admin"),
                Err(e) => Response::server_error(&e.to_string()),
            }
        }
        Ok(_) => Response::bad_request("simulation is not held"),
        Err(_) => Response::not_found(),
    }
}
