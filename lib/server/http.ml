type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let header name (req : request) =
  List.assoc_opt (String.lowercase_ascii name) req.headers

let reason = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let strip s =
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  while !j >= !i && (s.[!j] = ' ' || s.[!j] = '\t' || s.[!j] = '\r') do
    decr j
  done;
  String.sub s !i (!j - !i + 1)

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> Error "empty request head"
  | request_line :: header_lines -> (
      let request_line = strip request_line in
      match String.split_on_char ' ' request_line with
      | [ meth; path; version ]
        when version = "HTTP/1.1" || version = "HTTP/1.0" ->
          let rec headers acc = function
            | [] -> Ok (List.rev acc)
            | line :: rest ->
                let line =
                  if String.length line > 0 && line.[String.length line - 1] = '\r'
                  then String.sub line 0 (String.length line - 1)
                  else line
                in
                if line = "" then headers acc rest
                else (
                  match String.index_opt line ':' with
                  | None -> Error (Printf.sprintf "malformed header %S" line)
                  | Some i ->
                      let name =
                        String.lowercase_ascii (strip (String.sub line 0 i))
                      in
                      let value =
                        strip
                          (String.sub line (i + 1) (String.length line - i - 1))
                      in
                      headers ((name, value) :: acc) rest)
          in
          Result.map
            (fun headers ->
              { meth = String.uppercase_ascii meth; path; headers; body = "" })
            (headers [] header_lines)
      | _ -> Error (Printf.sprintf "malformed request line %S" request_line))

(* ------------------------------------------------------------------ *)
(* Incremental (resumable) request parsing                             *)
(* ------------------------------------------------------------------ *)

(* The multiplexer feeds whatever bytes the socket happens to have — a
   request may arrive in any number of chunks, and [step] must be callable
   after every one.  Unconsumed bytes accumulate in [pbuf]; the parsed head
   is memoized the moment its terminator appears so later feeds only check
   whether the body is complete.  [pscan] remembers how far the terminator
   search has already looked, keeping repeated [step]s on a trickling
   connection linear in the head size. *)
type incremental = {
  pbuf : Buffer.t;  (** unconsumed request bytes *)
  pmax_head : int;
  pmax_body : int;
  mutable pscan : int;  (** head-terminator search resumes here *)
  mutable phead : (request * int * int) option;
      (** parsed head, body offset in [pbuf], body length *)
  mutable perr : string option;  (** sticky: a framing error ends the conn *)
}

let incremental ?(max_head = 16 * 1024) ?(max_body = 1024 * 1024) () =
  {
    pbuf = Buffer.create 256;
    pmax_head = max_head;
    pmax_body = max_body;
    pscan = 0;
    phead = None;
    perr = None;
  }

let feed_sub p b ~pos ~len = Buffer.add_subbytes p.pbuf b pos len
let feed p s = Buffer.add_string p.pbuf s
let pending p = Buffer.length p.pbuf

(* Terminator search over [s] starting at [from]: index and length of the
   first "\r\n\r\n" (or lenient "\n\n"), if any. *)
let head_terminator s from =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '\n' && s.[i + 1] = '\n' then Some (i, 2)
    else if
      i + 3 < n
      && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some (i, 4)
    else go (i + 1)
  in
  go (max 0 from)

let content_length req =
  match header "content-length" req with
  | None -> Ok 0
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (Printf.sprintf "bad content-length %S" v))

let fail p msg =
  p.perr <- Some msg;
  `Error msg

let rec step p =
  match p.perr with
  | Some msg -> `Error msg
  | None -> (
      match p.phead with
      | None -> (
          let s = Buffer.contents p.pbuf in
          match head_terminator s (p.pscan - 3) with
          | None ->
              if String.length s > p.pmax_head then
                fail p "request head too large"
              else begin
                p.pscan <- String.length s;
                `More
              end
          | Some (i, tlen) -> (
              if i > p.pmax_head then fail p "request head too large"
              else
                match parse_head (String.sub s 0 i) with
                | Error msg -> fail p msg
                | Ok req -> (
                    match content_length req with
                    | Error msg -> fail p msg
                    | Ok len when len > p.pmax_body ->
                        fail p "request body too large"
                    | Ok len ->
                        p.phead <- Some (req, i + tlen, len);
                        step p)))
      | Some (req, off, len) ->
          if Buffer.length p.pbuf < off + len then `More
          else begin
            let s = Buffer.contents p.pbuf in
            let body = String.sub s off len in
            (* Consume exactly this request; pipelined bytes stay. *)
            Buffer.clear p.pbuf;
            Buffer.add_substring p.pbuf s (off + len)
              (String.length s - off - len);
            p.pscan <- 0;
            p.phead <- None;
            `Request { req with body }
          end)

(* A request is "in progress" once any of its bytes have arrived — the
   multiplexer's slow-request deadline starts there, while a connection
   with no pending bytes is merely idle and parks for free. *)
let mid_request p = p.perr <> None || p.phead <> None || pending p > 0

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let response_bytes ~keep_alive { status; headers; body } =
  let body = body ^ "\n" in
  let buf = Buffer.create (String.length body + 128) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  Buffer.add_string buf
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  Buffer.add_string buf
    (if keep_alive then "Connection: keep-alive\r\n"
     else "Connection: close\r\n");
  if
    not
      (List.exists
         (fun (k, _) -> String.lowercase_ascii k = "content-type")
         headers)
  then Buffer.add_string buf "Content-Type: application/json\r\n";
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body;
  Buffer.contents buf
