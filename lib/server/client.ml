type t = {
  host : string;
  port : int;
  mutable fd : Unix.file_descr;
  mutable buf : string;
  mutable used : bool;
      (** a request has completed on this socket — a later failure may be
          the server having evicted the parked connection, not an error *)
}

let connect_fd ~host ~port =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      try
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
        Ok fd
      with
      | Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Unix.error_message e)
      | Failure msg ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error msg)

let connect ~host ~port =
  Result.map
    (fun fd -> { host; port; fd; buf = ""; used = false })
    (connect_fd ~host ~port)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* [`Stale]: the socket died in a way consistent with the server having
   closed a parked keep-alive connection (idle eviction, drain, restart)
   — as opposed to failing mid-response. *)
let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write fd b off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          Error `Stale
      | exception Unix.Unix_error (e, _, _) ->
          Error (`Err (Unix.error_message e))
  in
  go 0

(* Read until [t.buf] satisfies [probe] (which returns how many bytes it
   still needs, 0 = done).  [start] is the buffer length when this
   response began: EOF with nothing read since then is a stale keep-alive
   close, EOF later is a truncated response. *)
let read_until t ~start probe =
  let chunk = Bytes.create 4096 in
  let rec go () =
    if probe t.buf = 0 then Ok ()
    else
      match Unix.read t.fd chunk 0 (Bytes.length chunk) with
      | 0 ->
          if String.length t.buf = start then Error `Stale
          else Error (`Err "connection closed mid response")
      | n ->
          t.buf <- t.buf ^ Bytes.sub_string chunk 0 n;
          go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
          if String.length t.buf = start then Error `Stale
          else Error (`Err "connection reset mid response")
      | exception Unix.Unix_error (e, _, _) ->
          Error (`Err (Unix.error_message e))
  in
  go ()

let find_sub hay needle from =
  let hn = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > hn then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go from

let attempt t ~meth ~path ~tenant ~headers ~body_s =
  let head =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: learnq\r\n%s%s%s\r\n" meth path
      (match tenant with
      | Some ten -> Printf.sprintf "x-learnq-tenant: %s\r\n" ten
      | None -> "")
      (String.concat ""
         (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))
      (match body_s with
      | Some b -> Printf.sprintf "Content-Length: %d\r\n" (String.length b)
      | None -> "Content-Length: 0\r\n")
  in
  let start = String.length t.buf in
  match write_all t.fd (head ^ Option.value ~default:"" body_s) with
  | Error _ as e -> e
  | Ok () -> (
      (* head *)
      let head_end s =
        match find_sub s "\r\n\r\n" start with Some _ -> 0 | None -> 1
      in
      match read_until t ~start head_end with
      | Error _ as e -> e
      | Ok () -> (
          let i = Option.get (find_sub t.buf "\r\n\r\n" start) in
          let raw_head = String.sub t.buf start (i - start) in
          let rest_off = i + 4 in
          let lines = String.split_on_char '\n' raw_head in
          let status =
            match lines with
            | status_line :: _ -> (
                match String.split_on_char ' ' status_line with
                | _ :: code :: _ -> int_of_string_opt code
                | _ -> None)
            | [] -> None
          in
          let content_length =
            List.fold_left
              (fun acc line ->
                let line = String.trim line in
                match String.index_opt line ':' with
                | Some j
                  when String.lowercase_ascii (String.sub line 0 j)
                       = "content-length" ->
                    int_of_string_opt
                      (String.trim
                         (String.sub line (j + 1) (String.length line - j - 1)))
                | _ -> acc)
              None lines
          in
          match (status, content_length) with
          | None, _ -> Error (`Err ("bad status line in " ^ raw_head))
          | _, None -> Error (`Err "response without content-length")
          | Some status, Some len -> (
              let need s = max 0 (rest_off + len - String.length s) in
              match read_until t ~start need with
              | Error _ as e -> e
              | Ok () ->
                  let body = String.sub t.buf rest_off len in
                  t.buf <-
                    String.sub t.buf (rest_off + len)
                      (String.length t.buf - rest_off - len);
                  let body = String.trim body in
                  let j =
                    match Json.parse body with
                    | Ok j -> j
                    | Error _ -> Json.Str body
                  in
                  t.used <- true;
                  Ok (status, j))))

let request t ~meth ~path ?tenant ?(headers = []) ?body () =
  let body_s = Option.map Json.to_string body in
  match attempt t ~meth ~path ~tenant ~headers ~body_s with
  | Ok r -> Ok r
  | Error (`Err msg) -> Error msg
  | Error `Stale when t.used -> (
      (* The parked connection was evicted (idle cap, drain, restart)
         between requests — not an error, the protocol allows it.  The
         socket died before a single response byte, so the request was
         never processed: reconnect and retry exactly once.  The dead
         socket is closed only once a new one replaces it, so after a
         failed reconnect [t] still owns an open descriptor and the
         caller's {!close} cannot hit a number another thread reused. *)
      match connect_fd ~host:t.host ~port:t.port with
      | Error msg -> Error ("reconnect after stale keep-alive: " ^ msg)
      | Ok fd -> (
          close t;
          t.fd <- fd;
          t.buf <- "";
          t.used <- false;
          match attempt t ~meth ~path ~tenant ~headers ~body_s with
          | Ok r -> Ok r
          | Error (`Err msg) -> Error msg
          | Error `Stale -> Error "connection closed before response"))
  | Error `Stale -> Error "connection closed before response"
