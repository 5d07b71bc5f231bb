module Circuit = Qca_circuit.Circuit
open Qca_adapt

(** Wire protocol of the adaptation service.

    A frame is [magic "QCA1"] · one kind byte · a 4-byte big-endian
    payload length · the payload — 9 bytes of header, then exactly
    [length] bytes. Payloads are line-based: `key: value` headers, a
    blank line, then an optional body (the circuit text), so frames are
    greppable in a capture while the length prefix keeps framing exact
    under pipelining and partial reads.

    Request kinds: ['A'] adapt, ['P'] ping, ['M'] metrics.
    Response kinds: ['R'] result, ['E'] error, ['O'] pong,
    ['T'] metrics text.

    Everything in a request frame is untrusted: the length field is
    checked against the server's byte cap before the payload is read,
    the payload goes through {!Qca_circuit.Wire} validation, and every
    decode error is a typed {!error_code} — never an exception. *)

val magic : string
val header_bytes : int  (** 9 *)

type format = Text | Qasm

type adapt_request = {
  method_ : Pipeline.method_;
  hardware : Hardware.t;
  format : format;
  timeout_ms : float option;  (** request deadline; server clamps *)
  max_conflicts : int option;
  use_cache : bool;  (** [false] opts out of the result cache *)
  traceparent : string option;
      (** W3C trace context to adopt; invalid values are ignored and a
          fresh trace id is generated *)
  circuit_text : string;
}

type request = Adapt of adapt_request | Ping | Get_metrics

type error_code =
  | Bad_frame  (** malformed frame or headers *)
  | Too_large  (** frame length over the server's byte cap *)
  | Invalid_circuit  (** wire validation or parse failure *)
  | Unsupported  (** unknown method/hardware/format *)
  | Overloaded  (** admission control refused; retry later *)
  | Shutting_down
  | Internal  (** handler crash or refuted certificate *)

type shed = No_shed | Shed_greedy | Shed_direct
    (** how far admission control demoted the request before solving *)

type cache_status = Cache_hit | Cache_miss | Cache_revalidated

type result_payload = {
  tier : Pipeline.tier;
  reason : string option;  (** stop reason when degraded *)
  shed : shed;
  cache : cache_status;
  cache_key : string;  (** hex digest of the content address *)
  conflicts : int;
  propagations : int;
  elapsed_ms : float;
  queue_ms : float;  (** time spent queued before a worker picked it up *)
  trace_id : string;  (** the request's trace id ("" from old servers) *)
  makespan : int option;  (** the solver's claimed duration, if any *)
  certified : bool option;  (** [None] = not checked on this response *)
  adapted_text : string;  (** adapted circuit, textual format *)
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

(** {1 Names} *)

val tier_to_string : Pipeline.tier -> string
val tier_of_string : string -> Pipeline.tier option
val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option
val shed_to_string : shed -> string
val shed_of_string : string -> shed option

(** {1 Encoding} *)

val encode_request : request -> string  (** a complete frame *)

val encode_response : response -> string

(** {1 Decoding}

    [decode_header] splits the 9 fixed bytes; the caller is responsible
    for reading exactly [length] payload bytes and handing them to the
    matching payload decoder. *)

val decode_header :
  string -> (char * int, [ `Bad_magic | `Bad_length ]) result
(** On the first {!header_bytes} bytes of a frame: kind and payload
    length (non-negative). *)

val decode_request :
  kind:char -> string -> (request, error_code * string) result

val decode_response : kind:char -> string -> (response, string) result
