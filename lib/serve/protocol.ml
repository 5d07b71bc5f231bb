module Circuit = Qca_circuit.Circuit
open Qca_adapt

let magic = "QCA1"
let header_bytes = 9

type format = Text | Qasm

type adapt_request = {
  method_ : Pipeline.method_;
  hardware : Hardware.t;
  format : format;
  timeout_ms : float option;
  max_conflicts : int option;
  use_cache : bool;
  traceparent : string option;
  circuit_text : string;
}

type request = Adapt of adapt_request | Ping | Get_metrics

type error_code =
  | Bad_frame
  | Too_large
  | Invalid_circuit
  | Unsupported
  | Overloaded
  | Shutting_down
  | Internal

type shed = No_shed | Shed_greedy | Shed_direct
type cache_status = Cache_hit | Cache_miss | Cache_revalidated

type result_payload = {
  tier : Pipeline.tier;
  reason : string option;
  shed : shed;
  cache : cache_status;
  cache_key : string;
  conflicts : int;
  propagations : int;
  elapsed_ms : float;
  queue_ms : float;
  trace_id : string;
  makespan : int option;
  certified : bool option;
  adapted_text : string;
}

type response =
  | Result of result_payload
  | Error_resp of {
      code : error_code;
      message : string;
      retry_after_ms : int option;
    }
  | Pong
  | Metrics_text of string

(* {1 Names} *)

let tier_to_string = Pipeline.tier_name

let tier_of_string = function
  | "full" -> Some Pipeline.Full
  | "incumbent" -> Some Pipeline.Incumbent
  | "greedy" -> Some Pipeline.Greedy_fallback
  | "direct" -> Some Pipeline.Direct_fallback
  | _ -> None

let error_code_to_string = function
  | Bad_frame -> "bad-frame"
  | Too_large -> "too-large"
  | Invalid_circuit -> "invalid-circuit"
  | Unsupported -> "unsupported"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad-frame" -> Some Bad_frame
  | "too-large" -> Some Too_large
  | "invalid-circuit" -> Some Invalid_circuit
  | "unsupported" -> Some Unsupported
  | "overloaded" -> Some Overloaded
  | "shutting-down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

let shed_to_string = function
  | No_shed -> "none"
  | Shed_greedy -> "greedy"
  | Shed_direct -> "direct"

let shed_of_string = function
  | "none" -> Some No_shed
  | "greedy" -> Some Shed_greedy
  | "direct" -> Some Shed_direct
  | _ -> None

let cache_to_string = function
  | Cache_hit -> "hit"
  | Cache_miss -> "miss"
  | Cache_revalidated -> "revalidated"

let cache_of_string = function
  | "hit" -> Some Cache_hit
  | "miss" -> Some Cache_miss
  | "revalidated" -> Some Cache_revalidated
  | _ -> None

(* {1 Framing} *)

let frame kind payload =
  let n = String.length payload in
  let b = Buffer.create (n + header_bytes) in
  Buffer.add_string b magic;
  Buffer.add_char b kind;
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_string b payload;
  Buffer.contents b

let decode_header h =
  if String.length h < header_bytes then Error `Bad_length
  else if String.sub h 0 4 <> magic then Error `Bad_magic
  else
    let byte i = Char.code h.[i] in
    let len =
      (byte 5 lsl 24) lor (byte 6 lsl 16) lor (byte 7 lsl 8) lor byte 8
    in
    (* the length field is 32-bit on the wire but declared as a signed
       quantity: the top bit set means a corrupt or hostile frame, not
       a 2 GiB request *)
    if len < 0 || len >= 0x8000_0000 then Error `Bad_length
    else Ok (h.[4], len)

(* {1 Payloads: headers, blank line, optional body} *)

let add_header b k v =
  Buffer.add_string b k;
  Buffer.add_string b ": ";
  Buffer.add_string b v;
  Buffer.add_char b '\n'

let payload headers body =
  let b = Buffer.create (256 + String.length body) in
  List.iter (fun (k, v) -> add_header b k v) headers;
  Buffer.add_char b '\n';
  Buffer.add_string b body;
  Buffer.contents b

(* Splits a payload into (headers, body). The header section ends at
   the first blank line; headers are `key: value`. *)
let split_payload s =
  let rec find_blank i =
    if i >= String.length s then None
    else
      match String.index_from_opt s i '\n' with
      | None -> None
      | Some j -> if j = i then Some j else find_blank (j + 1)
  in
  match find_blank 0 with
  | None -> Error "missing blank line after headers"
  | Some blank ->
    let header_sec = String.sub s 0 blank in
    let body =
      let start = blank + 1 in
      String.sub s start (String.length s - start)
    in
    let lines =
      String.split_on_char '\n' header_sec |> List.filter (fun l -> l <> "")
    in
    let parse_line l =
      match String.index_opt l ':' with
      | None -> Error (Printf.sprintf "malformed header %S" l)
      | Some i ->
        let k = String.trim (String.sub l 0 i) in
        let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
        Ok (k, v)
    in
    let rec all acc = function
      | [] -> Ok (List.rev acc)
      | l :: rest -> (
        match parse_line l with
        | Ok kv -> all (kv :: acc) rest
        | Error _ as e -> e)
    in
    Result.map (fun hs -> (hs, body)) (all [] lines)

let lookup hs k = List.assoc_opt k hs

(* {1 Requests} *)

let encode_request = function
  | Ping -> frame 'P' (payload [] "")
  | Get_metrics -> frame 'M' (payload [] "")
  | Adapt r ->
    let hs =
      [
        ("method", Pipeline.method_to_string r.method_);
        ("hardware", r.hardware.Hardware.name);
        ("format", match r.format with Text -> "text" | Qasm -> "qasm");
      ]
      @ (match r.timeout_ms with
        | Some ms -> [ ("timeout-ms", Printf.sprintf "%.3f" ms) ]
        | None -> [])
      @ (match r.max_conflicts with
        | Some n -> [ ("max-conflicts", string_of_int n) ]
        | None -> [])
      @ (match r.traceparent with
        | Some tp -> [ ("traceparent", tp) ]
        | None -> [])
      @ if r.use_cache then [] else [ ("cache", "off") ]
    in
    frame 'A' (payload hs r.circuit_text)

let decode_adapt s =
  match split_payload s with
  | Error msg -> Error (Bad_frame, msg)
  | Ok (hs, body) -> (
    let ( let* ) = Result.bind in
    let result =
      let* method_ =
        match lookup hs "method" with
        | None -> Error (Bad_frame, "missing method header")
        | Some m ->
          Result.map_error (fun e -> (Unsupported, e)) (Pipeline.method_of_string m)
      in
      let* hardware =
        match lookup hs "hardware" with
        | None -> Ok Hardware.d0
        | Some h ->
          Result.map_error (fun e -> (Unsupported, e)) (Hardware.of_string h)
      in
      let* format =
        match lookup hs "format" with
        | None | Some "text" -> Ok Text
        | Some "qasm" -> Ok Qasm
        | Some other ->
          Error (Unsupported, Printf.sprintf "unknown format %S" other)
      in
      let* timeout_ms =
        match lookup hs "timeout-ms" with
        | None -> Ok None
        | Some v -> (
          match float_of_string_opt v with
          | Some ms when ms >= 0.0 && Float.is_finite ms -> Ok (Some ms)
          | Some _ | None -> Error (Bad_frame, "invalid timeout-ms"))
      in
      let* max_conflicts =
        match lookup hs "max-conflicts" with
        | None -> Ok None
        | Some v -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> Ok (Some n)
          | Some _ | None -> Error (Bad_frame, "invalid max-conflicts"))
      in
      let use_cache = lookup hs "cache" <> Some "off" in
      Ok
        {
          method_;
          hardware;
          format;
          timeout_ms;
          max_conflicts;
          use_cache;
          traceparent = lookup hs "traceparent";
          circuit_text = body;
        }
    in
    match result with Ok r -> Ok (Adapt r) | Error _ as e -> e)

let decode_request ~kind s =
  match kind with
  | 'P' -> Ok Ping
  | 'M' -> Ok Get_metrics
  | 'A' -> decode_adapt s
  | c -> Error (Bad_frame, Printf.sprintf "unknown request kind %C" c)

(* {1 Responses} *)

let encode_response = function
  | Pong -> frame 'O' (payload [] "")
  | Metrics_text text -> frame 'T' (payload [] text)
  | Error_resp { code; message; retry_after_ms } ->
    let hs =
      [ ("code", error_code_to_string code) ]
      @
      match retry_after_ms with
      | Some ms -> [ ("retry-after-ms", string_of_int ms) ]
      | None -> []
    in
    frame 'E' (payload hs message)
  | Result r ->
    let hs =
      [
        ("tier", tier_to_string r.tier);
        ("shed", shed_to_string r.shed);
        ("cache", cache_to_string r.cache);
        ("cache-key", r.cache_key);
        ("conflicts", string_of_int r.conflicts);
        ("propagations", string_of_int r.propagations);
        ("elapsed-ms", Printf.sprintf "%.3f" r.elapsed_ms);
        ("queue-ms", Printf.sprintf "%.3f" r.queue_ms);
      ]
      @ (match r.trace_id with
        | "" -> []
        | id -> [ ("trace-id", id) ])
      @ (match r.reason with Some s -> [ ("reason", s) ] | None -> [])
      @ (match r.makespan with
        | Some m -> [ ("makespan", string_of_int m) ]
        | None -> [])
      @
      match r.certified with
      | Some b -> [ ("certified", if b then "yes" else "no") ]
      | None -> []
    in
    frame 'R' (payload hs r.adapted_text)

let decode_result s =
  match split_payload s with
  | Error msg -> Error msg
  | Ok (hs, body) -> (
    let ( let* ) = Result.bind in
    let req name of_string =
      match Option.bind (lookup hs name) of_string with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing or invalid %s header" name)
    in
    let result =
      let* tier = req "tier" tier_of_string in
      let* shed = req "shed" shed_of_string in
      let* cache = req "cache" cache_of_string in
      let* conflicts = req "conflicts" int_of_string_opt in
      let* propagations = req "propagations" int_of_string_opt in
      let* elapsed_ms = req "elapsed-ms" float_of_string_opt in
      (* optional: responses from older servers simply lack them *)
      let queue_ms =
        Option.value ~default:0.0
          (Option.bind (lookup hs "queue-ms") float_of_string_opt)
      in
      let trace_id = Option.value ~default:"" (lookup hs "trace-id") in
      let cache_key = Option.value ~default:"" (lookup hs "cache-key") in
      let reason = lookup hs "reason" in
      let makespan = Option.bind (lookup hs "makespan") int_of_string_opt in
      let certified =
        match lookup hs "certified" with
        | Some "yes" -> Some true
        | Some "no" -> Some false
        | Some _ | None -> None
      in
      Ok
        {
          tier;
          reason;
          shed;
          cache;
          cache_key;
          conflicts;
          propagations;
          elapsed_ms;
          queue_ms;
          trace_id;
          makespan;
          certified;
          adapted_text = body;
        }
    in
    match result with Ok r -> Ok (Result r) | Error _ as e -> e)

let decode_error s =
  match split_payload s with
  | Error msg -> Error msg
  | Ok (hs, body) -> (
    match Option.bind (lookup hs "code") error_code_of_string with
    | None -> Error "missing or invalid code header"
    | Some code ->
      let retry_after_ms =
        Option.bind (lookup hs "retry-after-ms") int_of_string_opt
      in
      Ok (Error_resp { code; message = body; retry_after_ms }))

let decode_response ~kind s =
  match kind with
  | 'O' -> Ok Pong
  | 'T' -> (
    match split_payload s with
    | Ok (_, body) -> Ok (Metrics_text body)
    | Error msg -> Error msg)
  | 'R' -> decode_result s
  | 'E' -> decode_error s
  | c -> Error (Printf.sprintf "unknown response kind %C" c)
