type reply = Label of bool | Refused | Timed_out

(* Attempt 0 rolls refusal/timeout, then noise, from one stream keyed by
   the question; a later attempt re-rolls only the first from its own. *)
let user ~seed ~truth ~refusal ~timeout ~noise ?(attempt = 0) key =
  let g = Prng.create (seed lxor Hashtbl.hash key) in
  let first = Prng.int g 1000 in
  let roll =
    if attempt = 0 then first
    else Prng.int (Prng.create (Hashtbl.hash (seed, key, attempt))) 1000
  in
  if roll < refusal then Refused
  else if roll < refusal + timeout then Timed_out
  else
    let label = truth key in
    Label (if Prng.int g 1000 < noise then not label else label)

type profile = { noise : int; refusal : int; timeout : int }

let rate name r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Flaky: %s rate %g not in [0,1]" name r)

let profile ?(noise = 0.) ?(refusal = 0.) ?(timeout = 0.) () =
  rate "noise" noise;
  rate "refusal" refusal;
  rate "timeout" timeout;
  if refusal +. timeout > 1. then
    invalid_arg "Flaky.profile: refusal + timeout exceeds 1";
  let pm r = Float.to_int (Float.round (r *. 1000.)) in
  { noise = pm noise; refusal = pm refusal; timeout = pm timeout }

type disk = {
  enospc : float;
  eio : float;
  short_write : float;
  lying_fsync : float;
  torn : float;
}

let no_disk_faults =
  { enospc = 0.; eio = 0.; short_write = 0.; lying_fsync = 0.; torn = 0. }

let disk ?(enospc = 0.) ?(eio = 0.) ?(short_write = 0.) ?(lying_fsync = 0.)
    ?(torn = 0.) () =
  rate "enospc" enospc;
  rate "eio" eio;
  rate "short_write" short_write;
  rate "lying_fsync" lying_fsync;
  rate "torn" torn;
  { enospc; eio; short_write; lying_fsync; torn }
