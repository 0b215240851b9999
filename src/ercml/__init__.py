"""Contextual metric learning for emotion recognition in conversation.

Frozen sentence embeddings are contextualized by a trainable attention
encoder over the whole dialog, trained jointly with a weighted
cross-entropy loss and a triplet loss under aggressive class-imbalance
controls, and evaluated with neutral-excluding F1 plus multiclass MCC.
"""

__version__ = "0.1.0"

from .corpus import (
    ALL_LABEL_IDS,
    EMOTION_IDS,
    EMOTION_NAMES,
    LABEL_NAMES,
    NEUTRAL_ID,
    Corpus,
    CorpusStats,
    Dialog,
    Utterance,
    corpus_stats,
    label_id,
    label_name,
    label_weights,
    load_split,
    parse_dialog_line,
    utt_key,
    write_split,
)
from .embeddings import (
    SentenceEmbeddingStore,
    hash_embed,
    hash_store_for_corpus,
    load_sentence_embeddings,
    save_sentence_embeddings,
)
from .encoder import (
    DialogSequence,
    EncoderLayerParams,
    build_batch_sequence,
    build_dialog_sequence,
    encode_dialog,
    encoder_forward,
    init_encoder,
    init_encoder_stack,
    sinusoidal_positions,
    stack_forward,
)
from .triplets import (
    Triplet,
    TripletLossConfig,
    UttRef,
    batch_all_triplets,
    batch_hard_triplets,
    corpus_pool,
    distance,
    sample_triplets,
    triplet_loss,
    triplet_loss_grads,
)
from .classifier import (
    ClassifierParams,
    batch_class_weights,
    init_classifier,
    predicted_label,
    pretrain_classifier,
    weighted_cross_entropy,
)
from .metrics import (
    BinaryCounts,
    ConfusionMatrix,
    MetricsReport,
    aggregate_runs,
    confusion,
    f1_excluding_neutral,
    mcc_binary,
    mcc_multiclass,
    report_from_confusion,
    report_from_predictions,
)
from .training import (
    ContextualModel,
    TrainConfig,
    evaluate_model,
    predict,
    train_contextual,
)
from .llm import (
    BUILTIN_TEMPLATES,
    UNPARSABLE,
    HttpGenerationClient,
    LlmEvalResult,
    PromptTemplate,
    ReplayClient,
    build_prompt,
    evaluate_llm,
    parse_label,
)
